package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"

	"github.com/gmtsim/gmt/internal/exp"
	"github.com/gmtsim/gmt/internal/fleet"
)

// fleetNodes and fleetPerNode size fleet_1024: 1024 nodes of the default
// a100:3,h100:1 mix, 96 requests each.
const (
	fleetNodes   = 1024
	fleetPerNode = 96
)

func (b *bench) fleetConfig() fleet.Config {
	cfg := fleet.DefaultConfig(fleetNodes)
	cfg.Stream.Requests = fleetNodes * fleetPerNode
	cfg.Stream.Seed = b.seed
	return cfg
}

// fleetInputs is the routed stream the benchmark builds itself, to check
// fleet.Run's accounting against.
type fleetInputs struct {
	requests int
	perNode  []int
}

// fleetSetup synthesizes and routes the stream through the same public
// functions fleet.Run uses: input synthesis and planning before the
// first node simulates.
func (b *bench) fleetSetup(cfg fleet.Config) (fleetInputs, float64) {
	var in fleetInputs
	secs := b.timed("fleet.setup", func() {
		var reqs []fleet.Request
		b.timed("fleet.GenerateStream", func() { reqs = fleet.GenerateStream(cfg.Stream) })
		var split [][]fleet.Request
		b.timed("fleet.route", func() {
			tpl := fleet.ExpandTemplates(cfg.Templates, cfg.Nodes)
			weights := make([]int, cfg.Nodes)
			for i, ti := range tpl {
				weights[i] = cfg.Templates[ti].Weight
			}
			split = fleet.Split(reqs, fleet.Assign(cfg.Router, weights, reqs), cfg.Nodes)
		})
		in.requests = len(reqs)
		for _, rs := range split {
			in.perNode = append(in.perNode, len(rs))
		}
	})
	return in, secs
}

// fleetPass runs the fleet once and checks its accounting: every
// generated request completes on the node the router chose, and
// per-node and per-template sums equal the fleet totals.
// It returns the time the pool ran without its busiest worker: the
// stream, routing and aggregation fleet.Run does serially.
func (b *bench) fleetPass(cfg fleet.Config, in fleetInputs) (serialS float64) {
	var res fleet.Result
	var pool exp.PoolReport
	var err error
	wallS := b.timed("fleet.Run", func() { res, pool, err = fleet.Run(b.ctx, cfg, workers, b.clock) })
	b.check(float64(pool.BusyNS) <= 1.01*float64(pool.Workers)*wallS*1e9,
		"fleet pool busy %.3fs exceeds %d workers x %.3fs wall", float64(pool.BusyNS)/1e9, pool.Workers, wallS)
	var maxBusyNS int64
	for _, ns := range pool.WorkerBusyNS {
		maxBusyNS = max(maxBusyNS, ns)
	}
	serialS = wallS - float64(maxBusyNS)/1e9
	nodes := int64(cfg.Nodes)
	b.ops(nodes, 0)
	if !b.check(err == nil, "fleet.Run: %v", err) {
		b.ops(0, nodes)
		return serialS
	}
	bad := int64(0)
	sumReq, sumSSD := 0, int64(0)
	for i, n := range res.PerNode {
		if i >= len(in.perNode) || n.Requests != in.perNode[i] || n.Node != i {
			bad++
		}
		sumReq += n.Requests
		sumSSD += n.SSDReads
	}
	b.check(bad == 0, "%d nodes completed a different request count than routed", bad)
	tplReq, tplNodes := 0, 0
	for _, t := range res.Templates {
		tplReq += t.Requests
		tplNodes += t.Nodes
	}
	ok := b.check(len(res.PerNode) == cfg.Nodes, "%d node results for %d nodes", len(res.PerNode), cfg.Nodes)
	ok = b.check(res.Fleet.Requests == in.requests && sumReq == in.requests,
		"completed %d (per-node sum %d), generated %d", res.Fleet.Requests, sumReq, in.requests) && ok
	ok = b.check(tplReq == in.requests && tplNodes == cfg.Nodes,
		"templates sum to %d requests on %d nodes", tplReq, tplNodes) && ok
	ok = b.check(sumSSD == res.Fleet.SSDReads, "per-node SSD reads sum to %d, fleet reports %d", sumSSD, res.Fleet.SSDReads) && ok
	if !ok {
		bad = nodes
	}
	b.ops(0, bad)

	h := sha256.New()
	if err := fleet.EncodeResult(h, res); err != nil {
		b.problem("encoding the fleet result: %v", err)
	}
	b.digest("sha256:" + hex.EncodeToString(h.Sum(nil)))
	return serialS
}

// fleet1024 runs the 1024-node fleet.
//
// Timed run: set up fifteen times (the median is setup_s), then run one
// pass per 5 s of budget; wall_s is the median fleet.Run.
// Traced run: one plain pass for the fleet accounting, one profiled pass
// (set-up included), then the replay.
func (b *bench) fleet1024() {
	cfg := b.fleetConfig()
	fmt.Printf("fleet nodes=%d requests=%d templates=a100:3,h100:1 router=%s stream_seed=%d\n",
		cfg.Nodes, cfg.Stream.Requests, cfg.Router, cfg.Stream.Seed)
	var setups []float64
	var in fleetInputs
	for i := 0; i < 15; i++ {
		var secs float64
		in, secs = b.fleetSetup(cfg)
		setups = append(setups, secs)
	}
	if b.traced {
		b.fleetTraced(cfg, in)
		return
	}
	var passes []passCost
	for i := 0; i < b.passCount(5); i++ {
		passes = append(passes, b.measure(func() { b.fleetPass(cfg, in) }))
	}
	b.setEndToEnd(passes, setups)
}

func (b *bench) fleetTraced(cfg fleet.Config, in fleetInputs) {
	var serialS float64
	plain := b.measure(func() {
		in, _ = b.fleetSetup(cfg)
		serialS = b.fleetPass(cfg, in)
	})
	b.setGC(plain)
	b.set("fleet.stream_s", b.medianSpan("fleet.GenerateStream"), "s")
	b.set("fleet.route_s", b.medianSpan("fleet.route"), "s")
	b.set("fleet.serial_s", serialS, "s")
	most, sum := 0, 0
	for _, n := range in.perNode {
		sum += n
		most = max(most, n)
	}
	b.set("fleet.node_req_imbalance", float64(most)*float64(len(in.perNode))/float64(sum), "ratio")

	file := filepath.Join(b.outDir, fmt.Sprintf("fleet_1024-%d.pprof", b.seed))
	var err error
	traced := b.measure(func() {
		err = profiled(file, func() {
			in, _ := b.fleetSetup(cfg)
			b.fleetPass(cfg, in)
		})
	})
	b.check(err == nil, "CPU profile: %v", err)
	b.overhead(plain, traced)
	b.replay()
	b.readShares(file)
}
