package main

import (
	"math"
	"strings"
	"testing"

	"github.com/gmtsim/gmt/internal/workload"
)

// TestCheckScale pins the suite scales gmtbench refuses with exit 2,
// including capacities that -quick's quartering drives to zero.
func TestCheckScale(t *testing.T) {
	cases := []struct {
		name  string
		s     workload.Scale
		quick bool
		bad   bool
	}{
		{"default", workload.DefaultScale(), false, false},
		{"quick default", workload.Scale{Tier1Pages: 256, Tier2Pages: 1024, Oversubscription: 2}, true, false},
		{"-osf 0", workload.Scale{Tier1Pages: 1024, Tier2Pages: 4096}, false, true},
		{"-osf -1", workload.Scale{Tier1Pages: 1024, Tier2Pages: 4096, Oversubscription: -1}, false, true},
		{"-osf Inf", workload.Scale{Tier1Pages: 1024, Tier2Pages: 4096, Oversubscription: math.Inf(1)}, false, true},
		{"-t1 0", workload.Scale{Tier2Pages: 4096, Oversubscription: 2}, false, true},
		{"-t2 0", workload.Scale{Tier1Pages: 1024, Oversubscription: 2}, false, true},
		{"-quick -t1 3", workload.Scale{Tier2Pages: 1024, Oversubscription: 2}, true, true},
	}
	for _, c := range cases {
		err := checkScale(c.s, c.quick)
		if (err != nil) != c.bad {
			t.Errorf("%s: checkScale = %v, want error %v", c.name, err, c.bad)
		}
		if err != nil && c.quick != strings.Contains(err.Error(), "-quick") {
			t.Errorf("%s: error %q should mention -quick exactly when it applied", c.name, err)
		}
	}
}
