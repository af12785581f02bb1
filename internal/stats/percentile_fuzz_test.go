package stats

import (
	"reflect"
	"testing"

	"github.com/gmtsim/gmt/internal/sim"
)

// FuzzMergeDigests checks the exact-merge contract on random
// partitions of random samples: merging the parts' digests — forward,
// reversed, or pairwise-grouped first — equals the digest of the
// concatenated samples, run for run, so Count and every quantile agree.
// Each input byte is one sample: its low nibble picks a coarse value
// (so values repeat within and across parts) and its high nibble the
// part it lands in.
func FuzzMergeDigests(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0x00, 0x11, 0x21, 0x10, 0xff}, uint8(3))
	f.Add([]byte("exact, mergeable latency distribution"), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, nparts uint8) {
		n := 1 + int(nparts%8)
		parts := make([][]sim.Time, n)
		var all []sim.Time
		for _, b := range data {
			v := sim.Time(b&0x0f) * sim.Millisecond
			p := int(b>>4) % n
			parts[p] = append(parts[p], v)
			all = append(all, v)
		}
		ds := make([]Digest, n)
		for i, p := range parts {
			ds[i] = NewDigest(p)
		}
		rev := make([]Digest, n)
		for i, d := range ds {
			rev[n-1-i] = d
		}
		var grouped []Digest
		for i := 0; i < n; i += 2 {
			grouped = append(grouped, MergeDigests(ds[i:min(i+2, n)]...))
		}

		want := NewDigest(all)
		for name, got := range map[string]Digest{
			"forward":  MergeDigests(ds...),
			"reversed": MergeDigests(rev...),
			"grouped":  MergeDigests(grouped...),
		} {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s merge = %+v, want %+v", name, got, want)
			}
			if got.Count() != int64(len(all)) {
				t.Fatalf("%s Count = %d, want %d", name, got.Count(), len(all))
			}
			for k := 0; k <= len(all); k++ {
				q := float64(k) / float64(max(len(all), 1))
				if g, w := got.Quantile(q), naiveQuantileOrZero(all, q); g != w {
					t.Fatalf("%s Quantile(%v) = %v, want %v", name, q, g, w)
				}
			}
		}
	})
}

// naiveQuantileOrZero is naiveQuantile with the empty digest's zero.
func naiveQuantileOrZero(samples []sim.Time, q float64) sim.Time {
	if len(samples) == 0 {
		return 0
	}
	return naiveQuantile(samples, q)
}
