package fleet

import (
	"fmt"

	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/stats"
	"github.com/gmtsim/gmt/internal/workload"
)

// kvShape is a node class's KV request shape: the KV-serving workload's
// decode cadence (one generated page per 8 steps, a full prefix and
// context re-read every 4th step) with an 8-page recent window, and a
// per-prefix footprint scaled to the class's Tier-1 so the prefix pool
// pressures the hierarchy comparably across templates.
func (t Template) kvShape() workload.KVShape {
	p := t.Tier1Pages / 64
	if p < 8 {
		p = 8
	}
	return workload.KVShape{PrefixPages: p, StepsPerPage: 8, RecentWindow: 8, OffloadStride: 4}
}

// nodeOutcome is one node's simulation result: tiering counters, the
// exact latency distribution of its requests, and the instant its last
// request completed (the node's makespan).
type nodeOutcome struct {
	run      stats.Run
	latency  stats.Digest
	requests int
	lastDone sim.Time
}

// footprintPages is the node's page-ID span, computed from the request
// lengths alone. A node's page layout puts the shared prefix pool
// (replicated on every node) in the low pages and places each request's
// prompt and generated KV pages above it in routed order, so the layout
// is a pure function of (template, stream shape, routed sub-stream).
func footprintPages(shape workload.KVShape, prefixes int, reqs []Request) int64 {
	cursor := int64(prefixes * shape.PrefixPages)
	for _, r := range reqs {
		cursor = shape.Place(int(r.Prefix), int(r.PromptPages), int(r.DecodeSteps), cursor).End()
	}
	return cursor
}

// appendRequest appends request r's accesses — prefill, then every
// decode step — to trace, placing its pages at cursor, and returns the
// extended trace and the advanced cursor.
func appendRequest(trace []gpu.Access, shape workload.KVShape, r Request, cursor int64) ([]gpu.Access, int64) {
	kr := shape.Place(int(r.Prefix), int(r.PromptPages), int(r.DecodeSteps), cursor)
	trace = shape.AppendStep(trace, &kr, workload.KVPrefill, 0)
	for k := 0; k < int(r.DecodeSteps); k++ {
		trace = shape.AppendStep(trace, &kr, workload.KVDecode, k)
	}
	return trace, kr.End()
}

// unit is one recyclable node simulator: an {engine, runtime} pair plus
// the buffers a node's requests reuse — the per-request trace, the
// stream that feeds it to the GPU, and the latency samples. The fleet
// keeps one pool of units per template, so a unit only ever serves one
// node class and Runtime.Reset resets its devices and tiers in place.
type unit struct {
	eng       *sim.Engine
	rt        *core.Runtime
	trace     []gpu.Access
	stream    gpu.SliceStream
	latencies []sim.Time
}

// simulateNode services one node's routed sub-stream on u, first
// building or resetting u's {engine, runtime} pair for the node's class
// and seed. Each request's trace is built into u's buffer right before
// its kernel runs to completion on the node's single deterministic
// engine (its service time is the kernel's simulated span), one GPU
// relaunched per request, and a FIFO queue converts open-loop arrival
// instants plus service times into per-request latencies. Everything
// here is simulated time — the determinism root the fleet's
// byte-identical contract hangs off, so detflow verifies no wall clock,
// global randomness, or cross-goroutine communication is reachable from
// it.
//
//gmt:detroot
func (u *unit) simulateNode(tpl Template, cfg Config, seed int64, reqs []Request) nodeOutcome {
	shape := tpl.kvShape()
	ccfg := tpl.coreConfig(seed, cfg.Tier2Policy)
	ccfg.FootprintPages = int(footprintPages(shape, cfg.Stream.Prefixes, reqs))
	if u.rt == nil {
		u.eng = sim.NewEngine()
		u.rt = core.NewRuntime(u.eng, ccfg)
	} else {
		u.rt.Reset(ccfg)
	}
	var g *gpu.GPU
	var lastDone sim.Time
	eng := u.eng
	cursor := int64(cfg.Stream.Prefixes * shape.PrefixPages)
	u.latencies = u.latencies[:0]
	for _, r := range reqs {
		u.trace, cursor = appendRequest(u.trace[:0], shape, r, cursor)
		u.stream.Reset(u.trace)
		t0 := eng.Now()
		if g == nil {
			g = gpu.New(eng, tpl.gpuConfig(), &u.stream, u.rt)
		}
		g.Launch()
		eng.Run()
		if !g.Done() {
			panic(fmt.Sprintf("fleet: request %d did not finish", r.ID))
		}
		service := eng.Now() - t0

		begin := r.Arrive
		if lastDone > begin {
			begin = lastDone
		}
		done := begin + service
		lastDone = done
		u.latencies = append(u.latencies, done-r.Arrive)
	}
	m := u.rt.Snapshot()
	m.App = "fleet-node"
	m.WallTime = lastDone
	if g != nil {
		m.WarpComputeNS = int64(g.ComputeTime())
		m.WarpStallNS = int64(g.StallTime())
	}
	return nodeOutcome{
		run:      m,
		latency:  stats.NewDigest(u.latencies),
		requests: len(reqs),
		lastDone: lastDone,
	}
}
