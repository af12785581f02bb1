package core

import (
	"math/rand"
	"testing"

	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/stats"
	"github.com/gmtsim/gmt/internal/tier"
)

// oracleTrace derives a random access stream from rng: a hot set for
// Tier-1 hits (each one moves a resident's next use), uniform cold
// traffic for evictions, sequential runs for the prefetcher, writes for
// dirty writebacks, and barriers, which the GPU consumes without an
// access so the future cursor drifts from the stream — next uses then
// move in both directions, the heap's hardest case.
func oracleTrace(rng *rand.Rand, n, footprint int) []gpu.Access {
	hot := footprint/8 + 1
	tr := make([]gpu.Access, 0, n)
	for len(tr) < n {
		switch r := rng.Intn(100); {
		case r < 2:
			tr = append(tr, gpu.Barrier)
		case r < 8:
			p := rng.Intn(footprint)
			for k := 0; k < 8 && len(tr) < n; k++ {
				tr = append(tr, gpu.Access{Page: tier.PageID((p + k) % footprint)})
			}
		case r < 55:
			tr = append(tr, gpu.Access{Page: tier.PageID(rng.Intn(hot)), Write: rng.Intn(8) == 0})
		default:
			tr = append(tr, gpu.Access{Page: tier.PageID(rng.Intn(footprint)), Write: rng.Intn(8) == 0})
		}
	}
	return tr
}

// oracleSel is one oracle victim selection.
type oracleSel struct {
	tier1 bool
	page  tier.PageID
}

// oracleFuzzConfig derives an oracle configuration and its trace from
// rng: tier sizes, every Tier-2 store, prefetch and AsyncEviction on
// and off, and the warp count.
func oracleFuzzConfig(rng *rand.Rand) (Config, []gpu.Access, int) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyOracle
	cfg.Tier1Pages = 2 + rng.Intn(62)
	cfg.Tier2Pages = 1 + rng.Intn(128)
	cfg.Tier2Policy = tier.StorePolicies[rng.Intn(len(tier.StorePolicies))]
	if rng.Intn(2) == 0 {
		cfg.PrefetchDegree = 1 + rng.Intn(4)
	}
	cfg.AsyncEviction = rng.Intn(2) == 0
	foot := cfg.Tier1Pages * (2 + rng.Intn(6))
	if rng.Intn(2) == 0 {
		cfg.FootprintPages = foot
	}
	trace := oracleTrace(rng, 500+rng.Intn(3000), foot)
	cfg.Future = futureOf(trace)
	return cfg, trace, 1 << rng.Intn(5)
}

// diffOracle runs one random oracle configuration twice: heap-driven,
// checking the heap's pick against the reference scan at every Tier-1
// and Tier-2 selection, and scan-driven, the selection rule the heap
// replaced. Both runs must make the same selections and end with the
// same clock, dispatched-event count and metrics.
func diffOracle(t *testing.T, seed int64) (selections, tier2 int) {
	t.Helper()
	cfg, trace, warps := oracleFuzzConfig(rand.New(rand.NewSource(seed)))
	run := func(byScan bool) ([]oracleSel, sim.Time, int64, stats.Run) {
		var sels []oracleSel
		eng := sim.NewEngine()
		rt := NewRuntime(eng, cfg)
		rt.oracleCheck = func(store tier.Store, heap, scan tier.PageID) tier.PageID {
			t1 := store == rt.t1
			if heap != scan {
				t.Fatalf("seed %d, selection %d (tier1=%v): heap picked page %d, scan page %d",
					seed, len(sels), t1, heap, scan)
			}
			pick := heap
			if byScan {
				pick = scan
			}
			sels = append(sels, oracleSel{t1, pick})
			return pick
		}
		runPhase(t, eng, rt, trace, warps)
		rt.CheckInvariants()
		return sels, eng.Now(), eng.Steps(), rt.Snapshot()
	}
	hs, hnow, hsteps, hm := run(false)
	ss, snow, ssteps, sm := run(true)
	if len(hs) != len(ss) {
		t.Fatalf("seed %d: %d heap selections, %d scan selections", seed, len(hs), len(ss))
	}
	for i := range hs {
		if hs[i] != ss[i] {
			t.Fatalf("seed %d, selection %d: heap %+v, scan %+v", seed, i, hs[i], ss[i])
		}
		if !hs[i].tier1 {
			tier2++
		}
	}
	if hnow != snow || hsteps != ssteps {
		t.Errorf("seed %d: heap run ended at %d after %d events, scan run at %d after %d",
			seed, hnow, hsteps, snow, ssteps)
	}
	if hm != sm {
		t.Errorf("seed %d: metrics diverged:\nheap: %+v\nscan: %+v", seed, hm, sm)
	}
	return len(hs), tier2
}

// TestOracleDifferential sweeps a fixed seed range so plain `go test`
// runs the heap-vs-scan differential, and checks the sweep reaches both
// tiers' selections.
func TestOracleDifferential(t *testing.T) {
	n := int64(40)
	if testing.Short() {
		n = 8
	}
	var sels, tier2 int
	for seed := int64(1); seed <= n; seed++ {
		s, s2 := diffOracle(t, seed)
		sels += s
		tier2 += s2
	}
	if sels-tier2 == 0 || tier2 == 0 {
		t.Fatalf("sweep made %d Tier-1 and %d Tier-2 selections; want both", sels-tier2, tier2)
	}
}

// FuzzOracleDifferential lets `go test -fuzz` explore seeds beyond the
// fixed sweep; the corpus seeds below run on every plain `go test`.
func FuzzOracleDifferential(f *testing.F) {
	for seed := int64(100); seed < 108; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		diffOracle(t, seed)
	})
}

// TestOracleHeapBounded runs a long oracle workload — hundreds of
// compaction thresholds' worth of pushes, prefetch re-entries included
// — and requires both heaps to stay within their bound at every
// selection and never outgrow the storage initOracle presized.
func TestOracleHeapBounded(t *testing.T) {
	trace := oracleTrace(rand.New(rand.NewSource(3)), 60_000, 256)
	cfg := DefaultConfig()
	cfg.Policy = PolicyOracle
	cfg.Tier1Pages = 32
	cfg.Tier2Pages = 64
	cfg.PrefetchDegree = 2
	cfg.Future = futureOf(trace)
	eng := sim.NewEngine()
	rt := NewRuntime(eng, cfg)
	bound1, bound2 := oracleHeapSlack*cfg.Tier1Pages, oracleHeapSlack*cfg.Tier2Pages
	selections := 0
	rt.oracleCheck = func(_ tier.Store, heap, _ tier.PageID) tier.PageID {
		selections++
		if len(rt.oracleT1.e) > bound1 || len(rt.oracleT2.e) > bound2 {
			t.Fatalf("selection %d: heaps hold %d and %d entries, bounds %d and %d",
				selections, len(rt.oracleT1.e), len(rt.oracleT2.e), bound1, bound2)
		}
		return heap
	}
	runPhase(t, eng, rt, trace, 8)
	rt.CheckInvariants()
	m := rt.Snapshot()
	t1Pushes := m.Tier1Hits + m.SSDFills + m.Tier2Hits
	if t1Pushes < int64(100*bound1) || m.EvictionsToTier2 < int64(100*bound2) {
		t.Fatalf("run too short to exercise compaction: %d Tier-1 pushes, %d Tier-2 placements",
			t1Pushes, m.EvictionsToTier2)
	}
	if cap(rt.oracleT1.e) != bound1 || cap(rt.oracleT2.e) != bound2 {
		t.Errorf("heap storage grew to %d and %d entries, presized %d and %d",
			cap(rt.oracleT1.e), cap(rt.oracleT2.e), bound1, bound2)
	}
}

// TestOracleForkMatchesContinuation pins the oracle through Fork: the
// child inherits the parent's Tier-1 victim heap, so a forked suffix
// behaves exactly like continuing on the parent.
func TestOracleForkMatchesContinuation(t *testing.T) {
	warm := forkTrace(128, 0, 128)
	tail := forkTrace(64, 3000, 512)
	cfg := DefaultConfig()
	cfg.Policy = PolicyOracle
	cfg.Tier1Pages = 128
	cfg.Tier2Pages = 64
	cfg.Future = futureOf(append(append([]gpu.Access(nil), warm...), tail...))

	engA := sim.NewEngine()
	a := NewRuntime(engA, cfg)
	runPhase(t, engA, a, warm, 16)
	runPhase(t, engA, a, tail, 16)

	engB := sim.NewEngine()
	parent := NewRuntime(engB, cfg)
	runPhase(t, engB, parent, warm, 16)
	engC := sim.NewEngineFrom(engB.Snapshot())
	child := parent.Fork(engC, cfg)
	runPhase(t, engC, child, tail, 16)
	child.CheckInvariants()

	if engA.Now() != engC.Now() || engA.Steps() != engC.Steps() {
		t.Errorf("continuation ended at %d after %d events, fork at %d after %d",
			engA.Now(), engA.Steps(), engC.Now(), engC.Steps())
	}
	if ma, mc := a.Snapshot(), child.Snapshot(); ma != mc {
		t.Errorf("metrics diverged:\ncontinuation: %+v\nfork:         %+v", ma, mc)
	}
}

// TestOracleHeapCompactsDuplicates pins compaction's deduplication: a
// page re-entering a store with an unchanged next use (a prefetch
// refill) leaves two live entries for one resident, and compaction must
// fold them so the heap stays within its presized storage.
func TestOracleHeapCompactsDuplicates(t *testing.T) {
	cfg := smallConfig(PolicyOracle)
	cfg.Tier1Pages = 4
	cfg.Future = []tier.PageID{0}
	rt := NewRuntime(sim.NewEngine(), cfg)
	for p := tier.PageID(0); p < 4; p++ {
		rt.page(p).nextUse = int64(10 * p)
		rt.t1.InsertSlot(p)
	}
	bound := oracleHeapSlack * cfg.Tier1Pages
	for i := 0; i < 100; i++ {
		p := tier.PageID(i % 4)
		rt.oracleNote(&rt.oracleT1, rt.t1, p, rt.dir.get(p).nextUse)
		if len(rt.oracleT1.e) > bound || cap(rt.oracleT1.e) != bound {
			t.Fatalf("push %d: %d entries in storage of %d, bound %d",
				i, len(rt.oracleT1.e), cap(rt.oracleT1.e), bound)
		}
	}
	if p, _ := rt.furthest(&rt.oracleT1, rt.t1); p != 3 {
		t.Fatalf("furthest = page %d, want 3", p)
	}
}
