// Package reuse implements GMT-Reuse's prediction machinery (paper
// §2.1.3): virtual-timestamp distances (VTD) as a cheap proxy for reuse
// distance, an exact reuse-distance tracker ("tree-based method") used by
// the host-side sampling thread, ordinary-least-squares regression
// mapping VTD→RD, the RRD equivalence-class classifier of Eq. 1, and the
// 3-state Markov history predictor of Figure 5.
package reuse

import "github.com/gmtsim/gmt/internal/tier"

// DistanceTracker computes, online, the exact reuse distance (number of
// distinct pages accessed since the previous access of the same page) and
// the VTD (number of accesses, unique or not, since the previous access).
//
// It is the model of the dedicated CPU thread that consumes GPU-pushed
// samples and converts VTDs into true reuse distances.
type DistanceTracker struct {
	last PagePositions // most recent access position per page
	bit  fenwick
	pos  int
}

// NewDistanceTracker returns an empty tracker.
func NewDistanceTracker() *DistanceTracker {
	return &DistanceTracker{}
}

// Observe records an access to p and reports its VTD and reuse distance.
// ok is false on the first access to p (no previous access exists).
func (t *DistanceTracker) Observe(p tier.PageID) (vtd, rd int64, ok bool) {
	cur := t.pos
	t.pos++
	lp, seen := t.last.Get(p)
	if seen {
		vtd = int64(cur - lp)
		// Distinct pages accessed strictly between the two accesses of
		// p: pages whose most recent access lies in (lp, cur).
		rd = t.bit.RangeSum(lp+1, cur-1)
		ok = true
		t.bit.Add(lp, -1)
	}
	t.bit.Add(cur, 1)
	t.last.Set(p, cur)
	return vtd, rd, ok
}

// Clone returns a deep copy of the tracker.
func (t *DistanceTracker) Clone() *DistanceTracker {
	return &DistanceTracker{
		last: t.last.clone(),
		pos:  t.pos,
		bit: fenwick{
			tree: append([]int64(nil), t.bit.tree...),
			raw:  append([]int64(nil), t.bit.raw...),
		},
	}
}

// Accesses reports how many accesses have been observed.
func (t *DistanceTracker) Accesses() int { return t.pos }

// RangeQuery is a half-open distinct-count question over an access trace:
// how many distinct pages appear in positions (From, To]?
type RangeQuery struct {
	From, To int
}

// DistinctInRanges answers distinct-page counts for many (From, To]
// windows over trace in O((N+Q) log N). GMT's experiment drivers use it
// to compute actual Remaining Reuse Distances at Tier-1 eviction points
// (Figures 4b, 4c, and 7): the RRD of an eviction at position e whose
// page is next accessed at position n is the distinct count in (e, n].
// A query whose To lies outside the trace is answered with -1.
func DistinctInRanges(trace []tier.PageID, queries []RangeQuery) []int64 {
	ans := make([]int64, len(queries))
	// Bucket queries by right endpoint with a counting sort: after the
	// fill below, the queries ending at t are order[end[t-1]:end[t]]
	// (with end[-1] = 0).
	end := make([]int, len(trace))
	valid := 0
	for i, q := range queries {
		if q.To >= len(trace) || q.To < 0 {
			ans[i] = -1
			continue
		}
		if q.To+1 < len(trace) {
			end[q.To+1]++
		}
		valid++
	}
	for t := 1; t < len(end); t++ {
		end[t] += end[t-1]
	}
	order := make([]int, valid)
	for i, q := range queries {
		if ans[i] == 0 {
			order[end[q.To]] = i
			end[q.To]++
		}
	}
	var bit fenwick
	bit.grow(len(trace))
	var last PagePositions
	lo := 0
	for t, p := range trace {
		if lp, seen := last.Get(p); seen {
			bit.Add(lp, -1)
		}
		bit.Add(t, 1)
		last.Set(p, t)
		for _, qi := range order[lo:end[t]] {
			ans[qi] = bit.RangeSum(queries[qi].From+1, t)
		}
		lo = end[t]
	}
	return ans
}

// PagePositions maps page IDs to trace positions. It is dense-indexed
// by page ID per the bounded-page-ID contract; the rare negative ID
// (e.g. a barrier marker fed by an offline analysis) falls back to a
// map. The zero value is empty.
type PagePositions struct {
	dense []int64 // -1 = unset
	neg   map[tier.PageID]int
}

// Get reports p's recorded position.
func (t *PagePositions) Get(p tier.PageID) (int, bool) {
	if p < 0 {
		pos, ok := t.neg[p]
		return pos, ok
	}
	if int64(p) >= int64(len(t.dense)) {
		return 0, false
	}
	pos := t.dense[p]
	return int(pos), pos >= 0
}

// Set records p's position.
func (t *PagePositions) Set(p tier.PageID, pos int) {
	if p < 0 {
		if t.neg == nil {
			t.neg = make(map[tier.PageID]int)
		}
		t.neg[p] = pos
		return
	}
	if int64(p) >= int64(len(t.dense)) {
		t.grow(int(p))
	}
	t.dense[p] = int64(pos)
}

// grow widens the dense table to cover page ID p.
//
//gmt:coldpath
func (t *PagePositions) grow(p int) {
	n := 2 * len(t.dense)
	if n < 64 {
		n = 64
	}
	if n <= p {
		n = p + 1
	}
	nv := make([]int64, n)
	copy(nv, t.dense)
	for i := len(t.dense); i < n; i++ {
		nv[i] = -1
	}
	t.dense = nv
}

// clone returns a deep copy.
func (t *PagePositions) clone() PagePositions {
	c := PagePositions{dense: append([]int64(nil), t.dense...)}
	if t.neg != nil {
		c.neg = make(map[tier.PageID]int, len(t.neg))
		for p, v := range t.neg {
			c.neg[p] = v
		}
	}
	return c
}
