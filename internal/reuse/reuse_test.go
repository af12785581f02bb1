package reuse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/gmtsim/gmt/internal/tier"
)

func TestFenwickAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var bit fenwick
		naive := make([]int64, 200)
		for op := 0; op < 300; op++ {
			i := rng.Intn(200)
			d := int64(rng.Intn(5) - 2)
			bit.Add(i, d)
			naive[i] += d
		}
		for q := 0; q < 50; q++ {
			lo, hi := rng.Intn(200), rng.Intn(200)
			if lo > hi {
				lo, hi = hi, lo
			}
			var want int64
			for i := lo; i <= hi; i++ {
				want += naive[i]
			}
			if bit.RangeSum(lo, hi) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// naiveDistances computes VTD and RD for each access by brute force.
func naiveDistances(trace []tier.PageID) (vtds, rds []int64, oks []bool) {
	for i, p := range trace {
		last := -1
		for j := i - 1; j >= 0; j-- {
			if trace[j] == p {
				last = j
				break
			}
		}
		if last < 0 {
			vtds, rds, oks = append(vtds, 0), append(rds, 0), append(oks, false)
			continue
		}
		distinct := map[tier.PageID]struct{}{}
		for j := last + 1; j < i; j++ {
			distinct[trace[j]] = struct{}{}
		}
		vtds = append(vtds, int64(i-last))
		rds = append(rds, int64(len(distinct)))
		oks = append(oks, true)
	}
	return vtds, rds, oks
}

func TestDistanceTrackerMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		trace := make([]tier.PageID, 300)
		for i := range trace {
			trace[i] = tier.PageID(rng.Intn(30))
		}
		wantV, wantR, wantOK := naiveDistances(trace)
		tr := NewDistanceTracker()
		for i, p := range trace {
			v, r, ok := tr.Observe(p)
			if ok != wantOK[i] {
				return false
			}
			if ok && (v != wantV[i] || r != wantR[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDistanceTrackerSimple(t *testing.T) {
	tr := NewDistanceTracker()
	// Trace: A B C A — reuse of A: VTD 3, RD 2 (B and C).
	for _, p := range []tier.PageID{0, 1, 2} {
		if _, _, ok := tr.Observe(p); ok {
			t.Fatal("first access reported a distance")
		}
	}
	v, r, ok := tr.Observe(0)
	if !ok || v != 3 || r != 2 {
		t.Fatalf("A B C A: vtd=%d rd=%d ok=%v, want 3,2,true", v, r, ok)
	}
	// A again immediately: VTD 1, RD 0.
	v, r, _ = tr.Observe(0)
	if v != 1 || r != 0 {
		t.Fatalf("A A: vtd=%d rd=%d, want 1,0", v, r)
	}
}

func TestDistinctInRangesMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		trace := make([]tier.PageID, 200)
		for i := range trace {
			trace[i] = tier.PageID(rng.Intn(25))
		}
		var qs []RangeQuery
		for q := 0; q < 40; q++ {
			from, to := rng.Intn(200)-1, rng.Intn(200)
			if from > to {
				from, to = to, from
			}
			qs = append(qs, RangeQuery{From: from, To: to})
		}
		got := DistinctInRanges(trace, qs)
		for i, q := range qs {
			if got[i] != naiveDistinct(trace, q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// naiveDistinct is DistinctInRanges' reference: the distinct pages in
// trace positions (q.From, q.To], or -1 when To lies outside the trace.
func naiveDistinct(trace []tier.PageID, q RangeQuery) int64 {
	if q.To < 0 || q.To >= len(trace) {
		return -1
	}
	distinct := map[tier.PageID]struct{}{}
	for j := q.From + 1; j <= q.To; j++ {
		distinct[trace[j]] = struct{}{}
	}
	return int64(len(distinct))
}

// FuzzDistinctInRanges drives DistinctInRanges against the naive
// reference. The input's first half is the trace, one page per byte
// (IDs past 64 exercise the dense position table's growth); the second
// half is pairs of query bytes, whose To may fall past the trace's end.
func FuzzDistinctInRanges(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 3, 0, 3, 0, 5, 2, 7})
	f.Add([]byte{4, 4, 4, 4, 0, 3, 1, 1, 2, 9})
	f.Add([]byte{200, 17, 200, 255, 0, 2, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		half := len(data) / 2
		trace := make([]tier.PageID, half)
		for i, b := range data[:half] {
			trace[i] = tier.PageID(b)
		}
		var qs []RangeQuery
		for i := half; i+1 < len(data); i += 2 {
			to := int(data[i+1]) % (half + 2)
			from := int(data[i])%(to+2) - 1 // -1 <= From <= To
			qs = append(qs, RangeQuery{From: from, To: to})
		}
		got := DistinctInRanges(trace, qs)
		for i, q := range qs {
			if want := naiveDistinct(trace, q); got[i] != want {
				t.Fatalf("query %+v over %v = %d, want %d", q, trace, got[i], want)
			}
		}
	})
}

func TestDistinctInRangesOutOfBounds(t *testing.T) {
	got := DistinctInRanges([]tier.PageID{1, 2}, []RangeQuery{{From: 0, To: 5}})
	if got[0] != -1 {
		t.Fatalf("out-of-bounds query = %d, want -1", got[0])
	}
}

func TestOLSExactLine(t *testing.T) {
	var o OLS
	// y = 0.5x + 3, exactly.
	for x := 1.0; x <= 100; x++ {
		o.Add(x, 0.5*x+3)
	}
	m, b, ok := o.Coefficients()
	if !ok {
		t.Fatal("fit reported degenerate")
	}
	if math.Abs(m-0.5) > 1e-9 || math.Abs(b-3) > 1e-9 {
		t.Fatalf("m=%g b=%g, want 0.5, 3", m, b)
	}
}

func TestOLSDegenerate(t *testing.T) {
	var o OLS
	if _, _, ok := o.Coefficients(); ok {
		t.Fatal("empty fit reported ok")
	}
	o.Add(5, 1)
	o.Add(5, 9) // no x variance
	if _, _, ok := o.Coefficients(); ok {
		t.Fatal("zero-variance fit reported ok")
	}
}

func TestCoeffsEstimate(t *testing.T) {
	c := Coeffs{M: 0.5, B: -10, Valid: true}
	if got := c.Estimate(100); got != 40 {
		t.Fatalf("estimate(100) = %d, want 40", got)
	}
	if got := c.Estimate(2); got != 0 {
		t.Fatalf("estimate clamped = %d, want 0", got)
	}
	// Invalid coefficients: identity fallback (VTD bounds RD above).
	inv := Coeffs{}
	if got := inv.Estimate(77); got != 77 {
		t.Fatalf("identity fallback = %d, want 77", got)
	}
}

func TestSamplerLearnsLinearRelation(t *testing.T) {
	// A pure cyclic sweep has constant VTD (no x variance), which must
	// be reported as a degenerate fit, not a bogus line.
	s := NewSampler(1000, 100)
	const n = 50
	for round := 0; round < 40; round++ {
		for p := 0; p < n; p++ {
			s.Observe(tier.PageID(p))
		}
	}
	if s.Coeffs().Valid {
		t.Fatal("constant-VTD workload produced a 'valid' fit")
	}
	// Interleaving two loop strides gives VTD variance; the fit must be
	// valid and respect the RD <= VTD bound.
	s2 := NewSampler(10_000, 1000)
	for round := 0; round < 100; round++ {
		for p := 0; p < n; p++ {
			s2.Observe(tier.PageID(p))
		}
		for p := 0; p < n/2; p++ {
			s2.Observe(tier.PageID(p))
		}
	}
	c2 := s2.Coeffs()
	if !c2.Valid {
		t.Fatal("mixed-stride sampler did not publish a valid fit")
	}
	// RD must never exceed VTD: slope at most ~1 with small offset.
	if c2.M > 1.05 {
		t.Fatalf("slope %g > 1: RD cannot exceed VTD", c2.M)
	}
	if got := c2.Estimate(1000); got > 1000 {
		t.Fatalf("estimate(1000) = %d exceeds VTD bound", got)
	}
}

func TestSamplerBatchingAndTarget(t *testing.T) {
	s := NewSampler(10, 4)
	for i := 0; i < 100; i++ {
		s.Observe(tier.PageID(i % 5)) // every access after the first 5 yields a pair
	}
	if !s.Done() {
		t.Fatal("sampler never reached target")
	}
	if s.Pairs() != 10 {
		t.Fatalf("pairs = %d, want exactly target 10", s.Pairs())
	}
	if s.Batches() < 2 {
		t.Fatalf("batches = %d, want >= 2 (pipelined publication)", s.Batches())
	}
}

func TestClassifierBoundaries(t *testing.T) {
	cl := Classifier{Tier1Pages: 100, Tier2Pages: 400}
	cases := []struct {
		rrd  int64
		want Class
	}{
		{0, Short}, {99, Short}, {100, Medium}, {499, Medium}, {500, Long}, {1 << 40, Long},
	}
	for _, c := range cases {
		if got := cl.Classify(c.rrd); got != c.want {
			t.Fatalf("Classify(%d) = %v, want %v", c.rrd, got, c.want)
		}
	}
}

func TestMarkovPersistentPattern(t *testing.T) {
	// MultiVectorAdd-like: every eviction of a page lands in the same
	// class (Fig. 4b).
	var m Markov
	for i := 0; i < 10; i++ {
		m.Update(Medium, Medium)
	}
	if got := m.Predict(Medium); got != Medium {
		t.Fatalf("persistent predict = %v, want Medium", got)
	}
}

func TestMarkovAlternatingPattern(t *testing.T) {
	// PageRank-like: classes alternate between evictions (Fig. 4c).
	var m Markov
	for i := 0; i < 10; i++ {
		m.Update(Medium, Long)
		m.Update(Long, Medium)
	}
	if m.Predict(Medium) != Long || m.Predict(Long) != Medium {
		t.Fatalf("alternating pattern not learned: w=%v", m.Weights())
	}
}

func TestMarkovTieBreaks(t *testing.T) {
	var m Markov
	// Untrained: predict self.
	if m.Predict(Short) != Short || m.Trained(Short) {
		t.Fatal("untrained state should predict self and report untrained")
	}
	// Equal non-self weights: prefer the longer distance.
	m.Update(Short, Medium)
	m.Update(Short, Long)
	if got := m.Predict(Short); got != Long {
		t.Fatalf("tie-break = %v, want Long", got)
	}
	// Self ties beat non-self.
	m.Update(Short, Short)
	m.Update(Short, Short)
	if got := m.Predict(Short); got != Short {
		t.Fatalf("self-tie = %v, want Short", got)
	}
}

func TestClassString(t *testing.T) {
	if Short.String() != "short-reuse" || Medium.String() != "medium-reuse" ||
		Long.String() != "long-reuse" || Class(9).String() != "unknown" {
		t.Fatal("class strings wrong")
	}
}
