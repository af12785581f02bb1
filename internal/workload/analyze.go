package workload

import (
	"math"

	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/reuse"
	"github.com/gmtsim/gmt/internal/tier"
)

// Characteristics summarizes a workload trace the way the paper's Table 2
// and Figure 7 do: reuse percentage, total I/O, and where reuse distances
// fall relative to the tier capacities.
//
// Two distance distributions are reported, because the paper uses both
// views: PairShort/Medium/Long bins the reuse distance of every access
// pair (the "where does the reuse live" view behind statements like
// "99.99% of Pathfinder's RRDs fall within Tier-1"), while
// EvictShort/Medium/Long bins the actual Remaining Reuse Distance at
// Tier-1 clock evictions of pages with a future access — the quantity
// GMT-Reuse predicts (Figures 4b/4c) and the placement-relevant bias.
type Characteristics struct {
	Name          string
	Pages         int64
	Accesses      int64
	DistinctPages int64
	ReusedPages   int64
	TotalIOBytes  int64

	PairShort, PairMedium, PairLong    int64
	EvictShort, EvictMedium, EvictLong int64
	DeadEvictions                      int64
}

// ReusePct reports the fraction of distinct pages with more than one
// access (Table 2's "Reuse % of a Page").
func (c Characteristics) ReusePct() float64 {
	if c.DistinctPages == 0 {
		return 0
	}
	return float64(c.ReusedPages) / float64(c.DistinctPages)
}

func fractions(a, b, c int64) (fa, fb, fc float64) {
	t := a + b + c
	if t == 0 {
		return 0, 0, 0
	}
	return float64(a) / float64(t), float64(b) / float64(t), float64(c) / float64(t)
}

// PairFractions reports the tier split of reuse-pair distances.
func (c Characteristics) PairFractions() (short, medium, long float64) {
	return fractions(c.PairShort, c.PairMedium, c.PairLong)
}

// EvictFractions reports the tier split of eviction-time RRDs.
func (c Characteristics) EvictFractions() (short, medium, long float64) {
	return fractions(c.EvictShort, c.EvictMedium, c.EvictLong)
}

// EvictionRecord is one Tier-1 eviction of a page that is accessed again
// later: its position in the trace and its actual RRD (distinct pages
// accessed before the page's next use). Figures 4b/4c plot these per
// page.
type EvictionRecord struct {
	Page     tier.PageID
	Position int
	RRD      int64
}

// PairSample is one (VTD, reuse distance) observation, the raw material
// of Figure 4a and the regression of Eq. 2.
type PairSample struct {
	VTD, RD int64
}

// Analysis bundles the summary with the raw series the figure drivers
// plot.
type Analysis struct {
	Characteristics
	Evictions []EvictionRecord
	Pairs     []PairSample
}

// Analyze computes trace characteristics against the given tier sizes.
// maxPairs bounds the collected (VTD, RD) samples (0 = none). Barrier
// tokens are stripped first: they synchronize warps but touch no page.
func Analyze(name string, trace []gpu.Access, s Scale, pageSize int64, maxPairs int) *Analysis {
	trace = stripBarriers(trace)
	cl := reuse.Classifier{Tier1Pages: int64(s.Tier1Pages), Tier2Pages: int64(s.Tier2Pages)}
	a := &Analysis{}
	a.Name = name
	a.Accesses = int64(len(trace))
	a.TotalIOBytes = a.Accesses * pageSize

	// Pass 1: access-pair distances, and each position's next use of
	// the same page (-1 = none). The tracker knows each page's previous
	// access: it lies vtd positions back.
	nextUse := make([]int, len(trace))
	var firsts []int // each distinct page's first access position
	var maxPage tier.PageID = -1
	tr := reuse.NewDistanceTracker()
	for i, acc := range trace {
		nextUse[i] = -1
		if acc.Page > maxPage {
			maxPage = acc.Page
		}
		vtd, rd, ok := tr.Observe(acc.Page)
		if !ok {
			firsts = append(firsts, i)
			continue
		}
		nextUse[i-int(vtd)] = i
		switch cl.Classify(rd) {
		case reuse.Short:
			a.PairShort++
		case reuse.Medium:
			a.PairMedium++
		default:
			a.PairLong++
		}
		if len(a.Pairs) < maxPairs {
			a.Pairs = append(a.Pairs, PairSample{VTD: vtd, RD: rd})
		}
	}
	a.DistinctPages = int64(len(firsts))
	for _, f := range firsts {
		if nextUse[f] >= 0 {
			a.ReusedPages++
		}
	}
	a.Characteristics.Pages = int64(maxPage) + 1

	// Pass 2: simulate a Tier-1 clock over the trace, recording
	// evictions, then compute each eviction's actual RRD (distinct
	// pages between eviction and next access) with the offline tree. An
	// evicted page's next access is the next use of its latest access.
	clock := tier.NewClock(s.Tier1Pages)
	type evict struct {
		page tier.PageID
		pos  int
		next int
	}
	var evicts []evict
	var lastPos reuse.PagePositions
	pageTrace := make([]tier.PageID, len(trace))
	for i, acc := range trace {
		pageTrace[i] = acc.Page
		lastPos.Set(acc.Page, i) // a victim is never acc.Page itself
		if clock.Contains(acc.Page) {
			clock.Touch(acc.Page)
			continue
		}
		if clock.Full() {
			v := clock.Victim()
			clock.Remove(v)
			lp, _ := lastPos.Get(v)
			if n := nextUse[lp]; n >= 0 {
				evicts = append(evicts, evict{page: v, pos: i, next: n})
			} else {
				a.DeadEvictions++
			}
		}
		clock.Insert(acc.Page)
	}
	queries := make([]reuse.RangeQuery, len(evicts))
	for i, e := range evicts {
		// The window spans from the access that triggered the eviction
		// (inclusive — it is an access to another page) up to, but not
		// including, the page's next access.
		queries[i] = reuse.RangeQuery{From: e.pos - 1, To: e.next - 1}
	}
	rrds := reuse.DistinctInRanges(pageTrace, queries)
	a.Evictions = make([]EvictionRecord, len(evicts))
	for i, e := range evicts {
		a.Evictions[i] = EvictionRecord{Page: e.page, Position: e.pos, RRD: rrds[i]}
		switch cl.Classify(rrds[i]) {
		case reuse.Short:
			a.EvictShort++
		case reuse.Medium:
			a.EvictMedium++
		default:
			a.EvictLong++
		}
	}
	return a
}

// stripBarriers removes gpu.Barrier tokens, returning the input slice
// unchanged when none are present.
func stripBarriers(trace []gpu.Access) []gpu.Access {
	for i, a := range trace {
		if a.IsBarrier() {
			out := make([]gpu.Access, 0, len(trace)-1)
			out = append(out, trace[:i]...)
			for _, b := range trace[i:] {
				if !b.IsBarrier() {
					out = append(out, b)
				}
			}
			return out
		}
	}
	return trace
}

// EvictionSeries groups eviction RRDs per page in eviction order — the
// data behind Figures 4b/4c. Only pages with at least minEvictions are
// returned.
func (a *Analysis) EvictionSeries(minEvictions int) map[tier.PageID][]int64 {
	series := make(map[tier.PageID][]int64)
	for _, e := range a.Evictions {
		series[e.Page] = append(series[e.Page], e.RRD)
	}
	for p, s := range series {
		if len(s) < minEvictions {
			delete(series, p)
		}
	}
	return series
}

// PairCorrelation fits RD = m*VTD + b over the collected samples and
// reports the coefficients with the Pearson correlation — Figure 4a's
// claim is that the relation is strongly linear.
func (a *Analysis) PairCorrelation() (m, b, r float64, ok bool) {
	if len(a.Pairs) < 2 {
		return 0, 0, 0, false
	}
	var o reuse.OLS
	var sx, sy float64
	for _, p := range a.Pairs {
		o.Add(float64(p.VTD), float64(p.RD))
		sx += float64(p.VTD)
		sy += float64(p.RD)
	}
	n := float64(len(a.Pairs))
	mx, my := sx/n, sy/n
	m, b, ok = o.Coefficients()
	if !ok {
		// Zero VTD variance (e.g. MultiVectorAdd's constant stride):
		// the relation is a single point, perfectly predictable by the
		// proportional fit through it.
		if mx > 0 {
			return my / mx, 0, 1, true
		}
		return m, b, 0, false
	}
	var cov, vx, vy float64
	for _, p := range a.Pairs {
		dx, dy := float64(p.VTD)-mx, float64(p.RD)-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return m, b, 1, true // perfectly degenerate line
	}
	r = cov / math.Sqrt(vx*vy)
	return m, b, r, true
}
