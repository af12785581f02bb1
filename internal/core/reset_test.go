package core

import (
	"testing"

	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/tier"
)

// resetCase is one step of the recycling chain: a config and the trace
// it runs.
type resetCase struct {
	cfg   Config
	trace []gpu.Access
}

// resetCases is the differential-test matrix: consecutive entries
// exercise both Reset branches per component — shape-compatible (reset
// in place) and shape-changed (rebuild) — across policies, Tier-2
// implementations, tier capacities, drive counts, and optional-feature
// flags. The oracle → non-oracle → oracle run with different futures
// proves the victim heaps recycle to a fresh runtime's state.
func resetCases() []resetCase {
	trace := forkTrace(128, 3000, 512)
	altTrace := forkTrace(96, 2500, 384)

	base := func() Config {
		cfg := DefaultConfig()
		cfg.Tier1Pages = 128
		cfg.Tier2Pages = 256
		cfg.FootprintPages = 512
		return cfg
	}
	bam := base()
	bam.Policy = PolicyBaM

	tierOrder := base()
	tierOrder.Policy = PolicyTierOrder

	random := base()
	random.Policy = PolicyRandom

	reuse := base()
	reuse.Policy = PolicyReuse

	reuseAgain := reuse // identical shape: every component resets in place

	lruk := base()
	lruk.Policy = PolicyReuse
	lruk.Tier2Policy = tier.StoreLRUK
	lruk.TrackTier2Reuse = true

	twoq := base()
	twoq.Policy = PolicyTierOrder
	twoq.Tier2Policy = tier.StoreTwoQ

	smallT1 := base()
	smallT1.Policy = PolicyReuse
	smallT1.Tier1Pages = 64

	striped := base()
	striped.Policy = PolicyTierOrder
	striped.SSDCount = 2

	async := base()
	async.Policy = PolicyReuse
	async.AsyncEviction = true
	async.Seed = 7

	oracle := base()
	oracle.Policy = PolicyOracle
	oracle.AsyncEviction = true
	oracle.Future = futureOf(trace)

	oracleAgain := base()
	oracleAgain.Policy = PolicyOracle
	oracleAgain.Tier2Policy = tier.StoreLRUK
	oracleAgain.Future = futureOf(altTrace)

	cases := []resetCase{}
	for _, cfg := range []Config{bam, tierOrder, random, reuse, reuseAgain, lruk, twoq, smallT1, striped, async, oracle, reuse} {
		cases = append(cases, resetCase{cfg, trace})
	}
	return append(cases, resetCase{oracleAgain, altTrace})
}

// TestResetMatchesFresh is the recycled-vs-fresh differential contract
// behind exp's worker-pool recycling: a runtime that already ran an
// arbitrary earlier configuration, then Reset to cfg, must produce a
// byte-identical run — wall clock, dispatched-event count, and the full
// metrics snapshot — to a freshly constructed runtime under cfg.
func TestResetMatchesFresh(t *testing.T) {
	cases := resetCases()

	// Fresh references, one per config.
	type ref struct {
		now   sim.Time
		steps int64
	}
	refs := make([]ref, len(cases))
	snaps := make([]any, len(cases))
	for i, c := range cases {
		eng := sim.NewEngine()
		rt := NewRuntime(eng, c.cfg)
		runPhase(t, eng, rt, c.trace, 16)
		refs[i] = ref{now: eng.Now(), steps: eng.Steps()}
		snaps[i] = rt.Snapshot()
	}

	// One recycled runtime serves every config in sequence; each run
	// must match its fresh reference exactly.
	eng := sim.NewEngine()
	rt := NewRuntime(eng, cases[0].cfg)
	for i, c := range cases {
		cfg := c.cfg
		if i > 0 {
			rt.Reset(cfg)
		}
		runPhase(t, eng, rt, c.trace, 16)
		if eng.Now() != refs[i].now {
			t.Errorf("config %d (%v): wall time: fresh %d, recycled %d",
				i, cfg.Policy, refs[i].now, eng.Now())
		}
		if eng.Steps() != refs[i].steps {
			t.Errorf("config %d (%v): dispatched events: fresh %d, recycled %d",
				i, cfg.Policy, refs[i].steps, eng.Steps())
		}
		if m := rt.Snapshot(); m != snaps[i] {
			t.Errorf("config %d (%v): metrics diverged:\nfresh:    %+v\nrecycled: %+v",
				i, cfg.Policy, snaps[i], m)
		}
		rt.CheckInvariants()
	}
}

// TestResetForkedPanics pins the aliasing guard: neither a frozen fork
// parent nor a forked child may be recycled — the parent's arena is
// shared with its children, and the child's directory aliases the
// parent's.
func TestResetForkedPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyReuse
	cfg.Tier1Pages = 128
	cfg.Tier2Pages = 256
	cfg.FootprintPages = 512
	trace := forkTrace(128, 0, 512)

	eng := sim.NewEngine()
	parent := NewRuntime(eng, cfg)
	runPhase(t, eng, parent, trace, 16)
	child := parent.Fork(sim.NewEngineFrom(eng.Snapshot()), cfg)

	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("Reset of frozen parent", func() { parent.Reset(cfg) })
	mustPanic("Reset of forked child", func() { child.Reset(cfg) })
}
