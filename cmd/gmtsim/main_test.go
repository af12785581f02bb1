package main

import (
	"math"
	"testing"

	"github.com/gmtsim/gmt"
)

// TestCheckFlags pins the flag combinations gmtsim refuses with exit 2
// before building anything.
func TestCheckFlags(t *testing.T) {
	scale := func(t1, t2 int, osf float64) gmt.Scale {
		return gmt.Scale{Tier1Pages: t1, Tier2Pages: t2, Oversubscription: osf}
	}
	cases := []struct {
		name  string
		s     gmt.Scale
		p     gmt.Policy
		warps int
		bad   bool
	}{
		{"defaults", scale(1024, 4096, 2), gmt.Reuse, 256, false},
		{"bam without tier-2", scale(1024, 0, 2), gmt.BaM, 256, false},
		{"one warp", scale(64, 256, 1), gmt.HMM, 1, false},
		{"-osf 0", scale(1024, 4096, 0), gmt.Reuse, 256, true},
		{"-osf -1", scale(1024, 4096, -1), gmt.Reuse, 256, true},
		{"-osf NaN", scale(1024, 4096, math.NaN()), gmt.Reuse, 256, true},
		{"-t1 0", scale(0, 4096, 2), gmt.Reuse, 256, true},
		{"-t2 0", scale(1024, 0, 2), gmt.Reuse, 256, true},
		{"-t2 0 hmm", scale(1024, 0, 2), gmt.HMM, 256, true},
		{"-warps 0", scale(1024, 4096, 2), gmt.Reuse, 0, true},
		{"-warps -3", scale(1024, 4096, 2), gmt.BaM, -3, true},
	}
	for _, c := range cases {
		if err := checkFlags(c.s, c.p, c.warps); (err != nil) != c.bad {
			t.Errorf("%s: checkFlags = %v, want error %v", c.name, err, c.bad)
		}
	}
}
