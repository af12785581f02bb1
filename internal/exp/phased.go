package exp

import (
	"fmt"
	"sync"

	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/stats"
	"github.com/gmtsim/gmt/internal/workload"
)

// minPrefix is the smallest eviction-free prefix worth splitting a run
// at; shorter warm-ups fall back to a monolithic simulation. The bound
// is part of the determinism contract: whether a run phases depends
// only on (trace, Tier1Pages), never on fork mode or worker count.
const minPrefix = 64

// shareCache is one root suite's cross-suite sharing domain: canonical
// warm-up prefix parents (forked per sweep point) and whole-run BaM
// results (valid across Tier-2 sweeps because BaM never consults
// Tier-2 or the RNG). Derived sub-suites point at their root's cache,
// so fig12's three ratio suites — or fig11's halved-tier suite and the
// root — share entries.
type shareCache struct {
	prefixes memo[*prefixParent]
	runs     memo[stats.Run]
}

// prefixParent is a frozen runtime that simulated one eviction-free
// warm-up prefix under its class's canonical config (core.PrefixConfig)
// plus the engine snapshot and warp-time totals the children need.
type prefixParent struct {
	// mu serializes Fork calls: forking writes the parent's frozen flag
	// and concurrent sweep points may fork the same parent.
	mu      sync.Mutex
	rt      *core.Runtime
	snap    sim.Snapshot
	compute sim.Time
	stall   sim.Time
}

// dataSuite returns the suite whose workloads and traces s consumes:
// itself, or the parent it adopted datasets from.
func (s *Suite) dataSuite() *Suite {
	if s.data != nil {
		return s.data
	}
	return s
}

// dataKey identifies the trace content a run of w consumed — the
// workload name plus the scale its generator derived from. Share-cache
// keys embed it so entries never collide across genuinely different
// datasets (fig13's doubled suite vs the root, say).
func (s *Suite) dataKey(w workload.Workload) string {
	return fmt.Sprintf("%s@%+v", w.Name(), s.dataSuite().Scale)
}

// adoptData pins sub's datasets to parent's: the sensitivity sweeps
// vary the machine, not the data (the paper holds datasets fixed when
// halving tiers for Figure 11's graph apps or sweeping Figure 12's
// Tier-2 ratio). With sharing enabled the parent's workloads and trace
// memo are reused outright; under NoFork the workloads are rebuilt at
// the parent's scale, so the sub-suite regenerates its own — byte-equal
// — traces and results cannot differ between the modes.
func (sub *Suite) adoptData(parent *Suite) {
	d := parent.dataSuite()
	if parent.NoFork {
		sub.apps = workload.All(d.Scale)
		return
	}
	sub.apps = d.apps
	sub.data = d
}

// phasedEligible reports whether a run under cfg may split at its
// eviction-free prefix. BaM is excluded — it has no warm-up state worth
// sharing and whole-run dedup covers it; Oracle, prefetch, external
// RNGs, and history sampling carry per-access state Fork cannot carry
// across the split.
func phasedEligible(cfg core.Config) bool {
	switch cfg.Policy {
	case core.PolicyTierOrder, core.PolicyRandom, core.PolicyReuse:
	default:
		return false
	}
	return cfg.RNG == nil && cfg.PrefetchDegree == 0 &&
		cfg.HistorySample == 0 && len(cfg.Future) == 0
}

// simulate is Run's compute step: canonical whole-run dedup for BaM,
// a phased (prefix + suffix) run on phased suites, a plain monolithic
// simulation otherwise.
func (s *Suite) simulate(w workload.Workload, cfg core.Config) stats.Run {
	if cfg.Policy == core.PolicyBaM && cfg.RNG == nil && !s.NoFork {
		key := fmt.Sprintf("bam|%s|gpu=%+v|cfg=%+v", s.dataKey(w), s.GPU, core.PrefixConfig(cfg))
		r, _ := s.share.runs.get(key, func() stats.Run { return s.runMono(w, cfg) })
		return r
	}
	if s.phased && phasedEligible(cfg) {
		return s.runPhased(w, cfg)
	}
	return s.runMono(w, cfg)
}

// runUnit is one recyclable {engine, runtime} pair. Monolithic
// simulations draw units from the suite pool: a unit that finished a
// run is Reset — reusing its page-directory arena, tier arrays, event
// arena, and pipeline pools — instead of being rebuilt from scratch,
// which is where sweep-scale prewarms used to spend most of their
// allocation churn. Units never serve phased runs: a forked parent is
// frozen forever and a forked child aliases its parent's arena, so
// neither may be recycled (Runtime.Reset panics on both).
type runUnit struct {
	eng *sim.Engine
	rt  *core.Runtime
}

// acquireUnit pops a pooled unit reset to cfg, or builds a fresh one.
func (s *Suite) acquireUnit(cfg core.Config) *runUnit {
	s.unitMu.Lock()
	var u *runUnit
	if n := len(s.units); n > 0 {
		u = s.units[n-1]
		s.units[n-1] = nil
		s.units = s.units[:n-1]
	}
	s.unitMu.Unlock()
	if u == nil {
		eng := sim.NewEngine()
		return &runUnit{eng: eng, rt: core.NewRuntime(eng, cfg)}
	}
	u.rt.Reset(cfg)
	return u
}

// releaseUnit returns a unit whose run completed to the pool.
func (s *Suite) releaseUnit(u *runUnit) {
	s.unitMu.Lock()
	s.units = append(s.units, u)
	s.unitMu.Unlock()
}

// runMono is the classic single-kernel simulation, on a recycled unit.
func (s *Suite) runMono(w workload.Workload, cfg core.Config) stats.Run {
	gcfg := s.GPU
	u := s.acquireUnit(cfg)
	eng, rt := u.eng, u.rt
	g := gpu.New(eng, gcfg, &gpu.SliceStream{Trace: s.Trace(w)}, rt)
	g.Launch()
	eng.Run()
	if !g.Done() {
		panic(fmt.Sprintf("exp: %s under %v did not finish", w.Name(), cfg.Policy))
	}
	m := rt.Snapshot()
	m.App = w.Name()
	m.WallTime = eng.Now()
	m.WarpComputeNS = g.ComputeTime()
	m.WarpStallNS = g.StallTime()
	s.releaseUnit(u)
	return m
}

// runPhased simulates w under cfg as two kernels split at the
// eviction-free prefix. With sharing enabled the prefix kernel runs
// once per canonical prefix class (prefixFor) and each sweep point
// forks the parent; under NoFork the same two-kernel structure runs
// end to end on one runtime. The fork-equivalence contract
// (core/fork_test.go) makes the two paths byte-identical.
func (s *Suite) runPhased(w workload.Workload, cfg core.Config) stats.Run {
	tr := s.Trace(w)
	k := core.EvictionFreePrefix(tr, cfg.Tier1Pages)
	if k < minPrefix || k >= len(tr) {
		return s.runMono(w, cfg)
	}
	name := w.Name()
	gcfg := s.GPU
	if !s.NoFork {
		p := s.prefixFor(w, tr, k, cfg)
		p.mu.Lock()
		child := p.rt.Fork(sim.NewEngineFrom(p.snap), cfg)
		p.mu.Unlock()
		eng := child.Engine()
		g := gpu.New(eng, gcfg, &gpu.SliceStream{Trace: tr[k:]}, child)
		g.Launch()
		eng.Run()
		if !g.Done() {
			panic(fmt.Sprintf("exp: %s forked suffix did not finish", name))
		}
		m := child.Snapshot()
		m.App = name
		m.WallTime = eng.Now()
		m.WarpComputeNS = p.compute + g.ComputeTime()
		m.WarpStallNS = p.stall + g.StallTime()
		return m
	}
	eng := sim.NewEngine()
	rt := core.NewRuntime(eng, cfg)
	g1 := gpu.New(eng, gcfg, &gpu.SliceStream{Trace: tr[:k]}, rt)
	g1.Launch()
	eng.Run()
	if !g1.Done() {
		panic(fmt.Sprintf("exp: %s warm-up prefix did not finish", name))
	}
	g2 := gpu.New(eng, gcfg, &gpu.SliceStream{Trace: tr[k:]}, rt)
	g2.Launch()
	eng.Run()
	if !g2.Done() {
		panic(fmt.Sprintf("exp: %s suffix did not finish", name))
	}
	m := rt.Snapshot()
	m.App = name
	m.WallTime = eng.Now()
	m.WarpComputeNS = g1.ComputeTime() + g2.ComputeTime()
	m.WarpStallNS = g1.StallTime() + g2.StallTime()
	return m
}

// prefixFor returns (building on first use) the warm-up parent for w's
// prefix class under cfg. The parent simulates tr[:k] under the class's
// canonical config; every config in the class forks it.
func (s *Suite) prefixFor(w workload.Workload, tr []gpu.Access, k int, cfg core.Config) *prefixParent {
	canon := core.PrefixConfig(cfg)
	gcfg := s.GPU
	key := fmt.Sprintf("%s|gpu=%+v|k=%d|cfg=%+v", s.dataKey(w), gcfg, k, canon)
	p, _ := s.share.prefixes.get(key, func() *prefixParent {
		eng := sim.NewEngine()
		rt := core.NewRuntime(eng, canon)
		g := gpu.New(eng, gcfg, &gpu.SliceStream{Trace: tr[:k]}, rt)
		g.Launch()
		eng.Run()
		if !g.Done() {
			panic(fmt.Sprintf("exp: %s warm-up prefix did not finish", w.Name()))
		}
		return &prefixParent{
			rt:      rt,
			snap:    eng.Snapshot(),
			compute: g.ComputeTime(),
			stall:   g.StallTime(),
		}
	})
	return p
}

// WarmPrefix simulates (and caches) the canonical warm-up parent a
// phased run of w under cfg would fork from, so the planner's
// "prefixes" phase can build every parent concurrently before the
// simulate fan-out. A no-op when the run would not fork (NoFork,
// ineligible config, or a degenerate prefix).
func (s *Suite) WarmPrefix(w workload.Workload, cfg core.Config) {
	if cfg.FootprintPages == 0 {
		cfg.FootprintPages = int(w.Pages())
	}
	if s.NoFork || !phasedEligible(cfg) {
		return
	}
	tr := s.Trace(w)
	k := core.EvictionFreePrefix(tr, cfg.Tier1Pages)
	if k < minPrefix || k >= len(tr) {
		return
	}
	s.prefixFor(w, tr, k, cfg)
}

// RunConfigPhased is RunConfig for sweep grids whose points share a
// warm-up: the run splits at the eviction-free prefix (when eligible)
// so grid points in one prefix class — e.g. the KV-serving study's four
// Tier-2 replacement policies — fork a single warm-up parent instead of
// each re-simulating it. Memoized under the same key shape as
// RunConfig.
func (s *Suite) RunConfigPhased(key string, w workload.Workload, cfg core.Config) stats.Run {
	if cfg.FootprintPages == 0 {
		cfg.FootprintPages = int(w.Pages())
	}
	return memoRun(s, &s.results, w.Name()+"/"+key, func() stats.Run {
		if phasedEligible(cfg) {
			return s.runPhased(w, cfg)
		}
		return s.runMono(w, cfg)
	})
}
