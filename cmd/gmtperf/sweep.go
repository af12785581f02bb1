package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"

	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/exp"
	"github.com/gmtsim/gmt/internal/stats"
	"github.com/gmtsim/gmt/internal/workload"
)

// sweepScale is gmtbench's default scale with the benchmark seed as the
// dataset seed (Kronecker graph, KV-serving mix).
func sweepScale(seed int64) workload.Scale {
	return workload.Scale{Tier1Pages: 1024, Tier2Pages: 4096, Oversubscription: 2, DatasetSeed: seed}
}

// sweepSetup is the set-up gmtbench pays before its first simulation:
// a fresh suite and the plan, which builds the Kronecker graph.
func (b *bench) sweepSetup() (s *exp.Suite, setupS, planS float64) {
	setupS = b.timed("exp.setup", func() {
		s = exp.NewSuite(sweepScale(b.seed))
		planS = b.timed("exp.Plan", func() { exp.Plan(s, exp.ExperimentNames) })
	})
	return s, setupS, planS
}

// sweepPass is one gmtbench "all": prewarm on the pool, then render
// every experiment from the memo.
type sweepPass struct {
	report  exp.Report
	rows    map[string]interface{}
	renderS float64
	digest  string
}

func (b *bench) sweepRun(s *exp.Suite) sweepPass {
	p := sweepPass{rows: make(map[string]interface{})}
	var err error
	b.timed("exp.Prewarm", func() {
		p.report, err = exp.Prewarm(b.ctx, s, exp.ExperimentNames, workers, b.clock)
	})
	b.ops(int64(p.report.JobsPlanned), 0)
	if !b.check(err == nil, "prewarm: %v", err) {
		b.ops(0, int64(p.report.JobsPlanned))
	}
	h := sha256.New()
	p.renderS = b.timed("exp.render", func() {
		for _, name := range exp.ExperimentNames {
			rows, _, ok := exp.RunExperiment(func() *exp.Suite { return s }, name, nil)
			b.ops(1, 0)
			if !b.check(ok, "experiment %s did not run", name) {
				b.ops(0, 1)
				continue
			}
			p.rows[name] = rows
			if err := exp.EncodeExperiment(h, name, rows); err != nil {
				b.problem("encoding %s: %v", name, err)
			}
		}
	})
	p.digest = "sha256:" + hex.EncodeToString(h.Sum(nil))
	return p
}

// conservation checks the access identity every stats.Run must satisfy.
func conservation(r stats.Run) bool {
	return r.Accesses == r.Tier1Hits+r.InFlightJoins+r.Tier2Hits+r.SSDFills
}

// sweepReads reads back, from the suite's memo, every per-app run the
// headline figures use and checks each one's access accounting. The reads
// must all be memo hits: the sweep already simulated them.
func (b *bench) sweepReads(s *exp.Suite) {
	sims := s.Simulations()
	for _, w := range s.Apps() {
		runs := []stats.Run{s.RunOracle(w), s.RunHMM(w, -1)}
		for _, p := range exp.Policies {
			runs = append(runs, s.Run(w, p))
		}
		runs = append(runs, s.Run(w, core.PolicyBaM))
		runs = append(runs, s.RunHMM(w, s.Run(w, core.PolicyReuse).Tier2HitRate()))
		for _, r := range runs {
			b.ops(1, 0)
			if !b.check(conservation(r), "%s/%s: %d accesses != %d T1 + %d joins + %d T2 + %d SSD",
				w.Name(), r.Policy, r.Accesses, r.Tier1Hits, r.InFlightJoins, r.Tier2Hits, r.SSDFills) {
				b.ops(0, 1)
			}
		}
	}
	b.check(s.Simulations() == sims, "reading back the sweep's runs simulated %d more", s.Simulations()-sims)
}

// claim is one numeric result PAPER.md's evaluation reports and
// EXPERIMENTS.md tracks.
type claim struct {
	name  string
	paper float64
	value func(rows map[string]interface{}) (float64, bool)
}

// claims are the nine paper numbers paper_err_pct compares against.
var claims = []claim{
	{"fig8_reuse", 1.50, fig8Avg("GMT-Reuse")},
	{"fig8_random", 1.24, fig8Avg("GMT-Random")},
	{"fig8_tierorder", 1.07, fig8Avg("GMT-TierOrder")},
	{"fig11_reuse", 1.23, sensAvg("fig11", "GMT-Reuse")},
	{"fig11_random", 1.14, sensAvg("fig11", "GMT-Random")},
	{"fig11_tierorder", 1.03, sensAvg("fig11", "GMT-TierOrder")},
	{"fig13_reuse", 1.45, sensAvg("fig13", "GMT-Reuse")},
	{"fig14_reuse_vs_hmm", 4.57, fig14Avg(func(r exp.Figure14Row) float64 { return r.ReuseSpeedup / r.HMMSpeedup })},
	{"fig14_reuse_vs_opt_hmm", 1.90, fig14Avg(func(r exp.Figure14Row) float64 { return r.ReuseVsOptHMM })},
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// fig8Avg is Figure 8's AVERAGE row for one policy.
func fig8Avg(policy string) func(map[string]interface{}) (float64, bool) {
	return func(rows map[string]interface{}) (float64, bool) {
		rs, ok := rows["fig8"].([]exp.Figure8Row)
		var xs []float64
		for _, r := range rs {
			xs = append(xs, r.Speedup[policy])
		}
		return mean(xs), ok && len(xs) > 0
	}
}

// sensAvg averages one policy's speedups over a sensitivity figure.
func sensAvg(fig, policy string) func(map[string]interface{}) (float64, bool) {
	return func(rows map[string]interface{}) (float64, bool) {
		rs, ok := rows[fig].([]exp.SensitivityRow)
		var xs []float64
		for _, r := range rs {
			xs = append(xs, r.Speedup[policy])
		}
		return mean(xs), ok && len(xs) > 0
	}
}

// fig14Avg averages a per-app ratio over Figure 14.
func fig14Avg(f func(exp.Figure14Row) float64) func(map[string]interface{}) (float64, bool) {
	return func(rows map[string]interface{}) (float64, bool) {
		rs, ok := rows["fig14"].([]exp.Figure14Row)
		var xs []float64
		for _, r := range rs {
			xs = append(xs, f(r))
		}
		return mean(xs), ok && len(xs) > 0
	}
}

// claimErrPct is |sim/paper - 1| in percent.
func claimErrPct(sim, paper float64) float64 {
	return 100 * math.Abs(sim/paper-1)
}

// paperErr reports each claim's error and their mean, paper_err_pct.
func (b *bench) paperErr(rows map[string]interface{}) {
	var errs []float64
	for _, c := range claims {
		v, ok := c.value(rows)
		if !b.check(ok && !math.IsNaN(v) && !math.IsInf(v, 0), "claim %s has no value", c.name) {
			continue
		}
		e := claimErrPct(v, c.paper)
		errs = append(errs, e)
		b.set("exp.err."+c.name, e, "%")
		fmt.Printf("claim %-24s paper %5.2f  sim %7.4f  err %6.2f%%\n", c.name, c.paper, v, e)
	}
	if len(errs) == len(claims) {
		b.set("exp.paper_err_pct", mean(errs), "%")
	}
}

// sweepLayers reports the exp layer's own accounting of one pass and
// checks that it reconciles with the benchmark's clock.
func (b *bench) sweepLayers(p sweepPass, planS, wallS float64) {
	rep := p.report
	b.set("exp.plan_s", planS, "s")
	phaseS := 0.0
	for _, ph := range rep.Phases {
		s := float64(ph.WallNS) / 1e9
		phaseS += s
		b.set("exp.phase_s."+ph.Name, s, "s")
	}
	b.set("exp.render_s", p.renderS, "s")
	b.set("exp.sims", float64(rep.Sims), "count")
	if n := rep.Sims + rep.CacheHits; n > 0 {
		b.set("exp.memo_hit_ratio", float64(rep.CacheHits)/float64(n), "ratio")
	}
	if rep.WallNS > 0 {
		b.set("exp.pool_util", float64(rep.BusyNS)/float64(int64(rep.Workers)*rep.WallNS), "ratio")
	}
	b.set("exp.worker_skew", skew(rep.WorkerBusyNS), "ratio")
	hmm := 0
	if rs, ok := p.rows["fig14"].([]exp.Figure14Row); ok {
		hmm = 2 * len(rs) // real and optimistic HMM per app
	}
	b.set("baseline.hmm_runs", float64(hmm), "count")

	// The H10 lesson: the layer's own accounting must add up to what the
	// benchmark measured from outside, or its numbers are not evidence.
	sum := planS + phaseS + p.renderS
	b.check(math.Abs(sum-wallS) <= 0.05*wallS+0.25,
		"plan %.3fs + phases %.3fs + render %.3fs = %.3fs, but the pass took %.3fs", planS, phaseS, p.renderS, sum, wallS)
	b.check(float64(rep.BusyNS) <= 1.01*float64(int64(rep.Workers)*rep.WallNS),
		"pool busy %.3fs exceeds %d workers x %.3fs wall", float64(rep.BusyNS)/1e9, rep.Workers, float64(rep.WallNS)/1e9)
}

// skew is the busiest worker's time over the mean worker's.
func skew(busy []int64) float64 {
	var sum, max int64
	for _, ns := range busy {
		sum += ns
		if ns > max {
			max = ns
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(busy)) / float64(sum)
}

// paperSweep runs gmtbench "all" at default scale on a fresh suite.
//
// Timed run: set up three times (the median is setup_s), then run one
// full pass per 30 s of budget, each on a fresh suite; wall_s is the
// median pass from the first prewarm job to the last rendered table. Traced run: one plain pass for the exp accounting, one profiled
// pass (set-up included) for the CPU shares, then the replay.
func (b *bench) paperSweep() {
	fmt.Printf("scale T1=1024 T2=4096 OSF=2 dataset_seed=%d (the models were calibrated on dataset seed 42)\n", b.seed)
	if b.traced {
		b.paperSweepTraced()
		return
	}
	var setups []float64
	var s *exp.Suite
	for i := 0; i < 3; i++ {
		var secs float64
		s, secs, _ = b.sweepSetup()
		setups = append(setups, secs)
	}
	var passes []passCost
	for i := 0; i < b.passCount(30); i++ {
		if i > 0 {
			var secs float64
			s, secs, _ = b.sweepSetup()
			setups = append(setups, secs)
		}
		var p sweepPass
		passes = append(passes, b.measure(func() { p = b.sweepRun(s) }))
		b.digest(p.digest)
		b.sweepReads(s)
		if i == 0 {
			b.paperErr(p.rows)
		}
	}
	b.setEndToEnd(passes, setups)
}

func (b *bench) paperSweepTraced() {
	var p sweepPass
	var s *exp.Suite
	var setupS, planS float64
	plain := b.measure(func() {
		s, setupS, planS = b.sweepSetup()
		passWall := b.timed("sweep.pass", func() { p = b.sweepRun(s) })
		b.sweepLayers(p, planS, planS+passWall)
	})
	b.setGC(plain)
	b.digest(p.digest)
	b.sweepReads(s)
	b.paperErr(p.rows)
	fmt.Printf("plain pass %.3fs (set-up %.3fs)\n", plain.wallS, setupS)

	file := filepath.Join(b.outDir, fmt.Sprintf("paper_sweep-%d.pprof", b.seed))
	var err error
	var q sweepPass
	traced := b.measure(func() {
		err = profiled(file, func() {
			s, _, _ := b.sweepSetup()
			q = b.sweepRun(s)
		})
	})
	b.check(err == nil, "CPU profile: %v", err)
	b.digest(q.digest)
	b.overhead(plain, traced)
	b.replay()
	b.readShares(file)
}
