package main

import (
	"fmt"
	"time"

	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/tier"
	"github.com/gmtsim/gmt/internal/workload"
)

// countingMM is the decorator the replay puts between the warp model and
// the GMT runtime. It counts calls and batched pages, and forwards every
// fast-path interface the runtime offers, so the GPU takes the same
// batched and typed-callback paths it takes without the decorator.
type countingMM struct {
	rt           *core.Runtime
	calls        int64
	batchCalls   int64
	batchedPages int64
}

var _ gpu.BatchSyncMemoryManager = (*countingMM)(nil)
var _ gpu.CallSyncMemoryManager = (*countingMM)(nil)

func (m *countingMM) Access(a gpu.Access, done func()) {
	m.calls++
	m.rt.Access(a, done)
}

func (m *countingMM) AccessSync(a gpu.Access, done func()) bool {
	m.calls++
	return m.rt.AccessSync(a, done)
}

func (m *countingMM) AccessSyncCall(a gpu.Access, call sim.EventFunc, ctx any, arg int64) bool {
	m.calls++
	return m.rt.AccessSyncCall(a, call, ctx, arg)
}

func (m *countingMM) AccessSyncBatch(accs []gpu.Access, max int) int {
	m.calls++
	m.batchCalls++
	n := m.rt.AccessSyncBatch(accs, max)
	m.batchedPages += int64(n)
	return n
}

// replayTotals accumulates the replay's counts across runs.
type replayTotals struct {
	runs, badRuns          int64
	events, hostNS         int64
	accesses, t1Hits       int64
	t2Lookups, t2Hits      int64
	t2Evictions            int64
	mmCalls                int64
	batchCalls, batchPages int64
	nvmeCmds, nvmeLatNS    int64
	pcieBytes              int64
	pcieBusyNS, virtualNS  int64
	dma, zeroCopy          int64
	predictions, correct   int64
}

// replayPolicies are the policies the replay runs every app under: the
// baseline, GMT-Reuse (predictor) and the oracle (Belady scan).
var replayPolicies = []core.PolicyKind{core.PolicyBaM, core.PolicyReuse, core.PolicyOracle}

// replay runs the nine apps at default scale under each replay policy
// through sim, gpu and core, built here, and reports per-event and
// per-call host costs plus exact counts read from the engine, the
// runtime and its devices. It is the same on every workload.
func (b *bench) replay() {
	scale := sweepScale(b.seed)
	apps := workload.All(scale)
	var graphApp workload.Workload
	for _, w := range apps {
		if w.Name() == "BFS" {
			graphApp = w
		}
	}
	// The graph apps share one lazily built Kronecker graph; the first
	// footprint query builds it.
	b.set("graph.kron_s", b.timed("graph.build", func() { graphApp.Pages() }), "s")
	traces := make([][]gpu.Access, len(apps))
	b.set("workload.trace_gen_s", b.timed("workload.trace", func() {
		for i, w := range apps {
			traces[i] = w.Trace()
		}
	}), "s")

	var t replayTotals
	gcfg := gpu.DefaultConfig()
	for i, w := range apps {
		for _, p := range replayPolicies {
			cfg := core.DefaultConfig()
			cfg.Policy = p
			cfg.Tier1Pages = scale.Tier1Pages
			cfg.Tier2Pages = scale.Tier2Pages
			cfg.Seed = 1
			cfg.FootprintPages = int(w.Pages())
			if p == core.PolicyOracle {
				future := make([]tier.PageID, len(traces[i]))
				for k, a := range traces[i] {
					future[k] = a.Page
				}
				cfg.Future = future
				cfg.AsyncEviction = true
			}
			b.replayOne(&t, w.Name(), traces[i], cfg, gcfg)
		}
	}

	b.ops(t.runs, t.badRuns)
	ratio := func(n, d int64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	b.set("sim.events", float64(t.events), "count")
	b.set("sim.ns_per_event", ratio(t.hostNS, t.events), "ns")
	b.set("gpu.mm_calls", float64(t.mmCalls), "count")
	b.set("gpu.batch_pages_per_call", ratio(t.batchPages, t.batchCalls), "pages/call")
	b.set("core.accesses", float64(t.accesses), "count")
	b.set("core.t1_hit_ratio", ratio(t.t1Hits, t.accesses), "ratio")
	b.set("core.ns_per_access", ratio(t.hostNS, t.accesses), "ns")
	b.set("tier.t2_lookups", float64(t.t2Lookups), "count")
	b.set("tier.t2_useful_ratio", ratio(t.t2Hits, t.t2Lookups), "ratio")
	b.set("tier.t2_evictions", float64(t.t2Evictions), "count")
	b.set("nvme.commands", float64(t.nvmeCmds), "count")
	b.set("nvme.mean_latency_us", ratio(t.nvmeLatNS, t.nvmeCmds)/1e3, "sim_us")
	b.set("pcie.bytes", float64(t.pcieBytes), "bytes")
	b.set("pcie.busy_frac", ratio(t.pcieBusyNS, 2*t.virtualNS), "ratio")
	b.set("xfer.zc_ratio", ratio(t.zeroCopy, t.dma+t.zeroCopy), "ratio")
	b.set("reuse.predictions", float64(t.predictions), "count")
	b.set("reuse.accuracy", ratio(t.correct, t.predictions), "ratio")
	fmt.Printf("replay %d runs, %d events, %.3fs host\n", t.runs, t.events, float64(t.hostNS)/1e9)
}

// replayOne simulates one app under one configuration and folds its
// counts into t.
func (b *bench) replayOne(t *replayTotals, app string, trace []gpu.Access, cfg core.Config, gcfg gpu.Config) {
	eng := sim.NewEngine()
	rt := core.NewRuntime(eng, cfg)
	mm := &countingMM{rt: rt}
	g := gpu.New(eng, gcfg, &gpu.SliceStream{Trace: trace}, mm)
	t0 := time.Now()
	g.Launch()
	eng.Run()
	t.hostNS += int64(time.Since(t0))

	r := rt.Snapshot()
	t.runs++
	if !b.check(g.Done() && conservation(r), "replay %s under %v: done=%v, %d accesses != %d T1 + %d joins + %d T2 + %d SSD",
		app, cfg.Policy, g.Done(), r.Accesses, r.Tier1Hits, r.InFlightJoins, r.Tier2Hits, r.SSDFills) {
		t.badRuns++
	}
	t.events += eng.Steps()
	t.virtualNS += eng.Now()
	t.accesses += r.Accesses
	t.t1Hits += r.Tier1Hits
	t.t2Lookups += r.Tier2Lookups
	t.t2Hits += r.Tier2Hits
	t.t2Evictions += r.Tier2Evictions
	t.mmCalls += mm.calls
	t.batchCalls += mm.batchCalls
	t.batchPages += mm.batchedPages
	t.predictions += r.Predictions
	t.correct += r.CorrectPredictions

	ssd := rt.SSD().Stats()
	t.nvmeCmds += ssd.Completions
	t.nvmeLatNS += ssd.MeanLatency * ssd.Completions
	if link := rt.HostLink(); link != nil {
		t.pcieBytes += link.TotalBytes()
		t.pcieBusyNS += link.Up.BusyTime() + link.Down.BusyTime()
	}
	if mv := rt.Mover(); mv != nil {
		x := mv.Stats()
		t.dma += x.DMATransfers
		t.zeroCopy += x.ZeroCopyTransfers
	}
}
