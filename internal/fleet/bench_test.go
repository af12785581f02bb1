package fleet

import (
	"testing"

	"github.com/gmtsim/gmt/internal/invariant"
	"github.com/gmtsim/gmt/internal/raceflag"
)

// TestFleetNodeAllocGate pins a fleet node's steady state at zero
// per-request allocations: on a warmed unit, each request's trace is
// built into the unit's recycled buffer, the node's one GPU is
// relaunched, and the runtime resets in place, so a node's allocation
// count is the same for 16 requests as for 256.
func TestFleetNodeAllocGate(t *testing.T) {
	if raceflag.Enabled || invariant.Enabled {
		t.Skip("allocation gates run on the default build only")
	}
	cfg := DefaultConfig(1)
	cfg.Stream.Requests = 256
	tpl := cfg.Templates[0]
	reqs := GenerateStream(cfg.Stream)
	u := &unit{}
	u.simulateNode(tpl, cfg, cfg.Seed, reqs) // warm every buffer and pool to the longest request
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(3, func() { u.simulateNode(tpl, cfg, cfg.Seed, reqs[:n]) })
	}
	short, long := allocs(16), allocs(256)
	if short != long {
		t.Errorf("node allocations: %.1f for 16 requests, %.1f for 256; want equal", short, long)
	}
}
