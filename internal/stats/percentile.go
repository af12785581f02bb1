package stats

import (
	"cmp"
	"slices"

	"github.com/gmtsim/gmt/internal/sim"
)

// Digest is an exact, mergeable latency distribution: a sorted
// run-length encoding of simulated-time samples. Unlike the approximate
// sketches serving systems use online, fleet aggregation here is
// offline and modest in cardinality (one digest per node), so we keep
// every distinct value and merge exactly — fleet percentiles are
// byte-identical no matter how per-node digests are grouped or ordered,
// which is what the parallel-determinism contract requires.
type Digest struct {
	vals   []sim.Time
	counts []int64
	total  int64
}

// NewDigest builds a digest from raw samples. The input slice is not
// retained or modified, and the allocation count does not depend on the
// sample count.
func NewDigest(samples []sim.Time) Digest {
	if len(samples) == 0 {
		return Digest{}
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	d := newDigest(distinct(len(sorted), func(i int) sim.Time { return sorted[i] }))
	for _, v := range sorted {
		d.add(v, 1)
	}
	return d
}

// distinct counts the distinct values among n values listed in
// non-decreasing order.
func distinct(n int, at func(i int) sim.Time) int {
	k := 0
	for i := 0; i < n; i++ {
		if i == 0 || at(i) != at(i-1) {
			k++
		}
	}
	return k
}

// newDigest returns an empty digest with room for runs distinct values.
func newDigest(runs int) Digest {
	return Digest{vals: make([]sim.Time, 0, runs), counts: make([]int64, 0, runs)}
}

// add appends a (value, count) run, coalescing with the last run when
// the value repeats. Callers must append in non-decreasing value order.
func (d *Digest) add(v sim.Time, n int64) {
	d.total += n
	if k := len(d.vals); k > 0 && d.vals[k-1] == v {
		d.counts[k-1] += n
		return
	}
	d.vals = append(d.vals, v)
	d.counts = append(d.counts, n)
}

// Count reports the number of samples the digest summarizes.
func (d Digest) Count() int64 { return d.total }

// digestRun is one (value, count) run of a digest.
type digestRun struct {
	v sim.Time
	n int64
}

// MergeDigests folds any number of digests into one, exactly: the
// result is identical to a digest built from the concatenated raw
// samples, independent of argument order or grouping. It gathers every
// run, sorts them by value and coalesces equal values (counts add, so
// the unstable sort cannot show): O(R log R) over R runs in total,
// whatever the number of digests.
func MergeDigests(ds ...Digest) Digest {
	n := 0
	for _, d := range ds {
		n += len(d.vals)
	}
	if n == 0 {
		return Digest{}
	}
	runs := make([]digestRun, 0, n)
	for _, d := range ds {
		for i, v := range d.vals {
			runs = append(runs, digestRun{v, d.counts[i]})
		}
	}
	slices.SortFunc(runs, func(a, b digestRun) int { return cmp.Compare(a.v, b.v) })
	out := newDigest(distinct(len(runs), func(i int) sim.Time { return runs[i].v }))
	for _, r := range runs {
		out.add(r.v, r.n)
	}
	return out
}

// Quantile reports the exact nearest-rank quantile: the smallest sample
// value whose cumulative count reaches ceil(q·N). q is clamped to
// [0, 1]; an empty digest reports zero.
func (d Digest) Quantile(q float64) sim.Time {
	if d.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(d.total))
	if float64(rank) < q*float64(d.total) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range d.counts {
		cum += c
		if cum >= rank {
			return d.vals[i]
		}
	}
	return d.vals[len(d.vals)-1]
}
