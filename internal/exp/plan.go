package exp

import (
	"fmt"

	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/workload"
)

// ExperimentNames lists every experiment gmtbench knows, in rendering
// order. The planner understands the same names.
var ExperimentNames = []string{
	"table1", "table2", "fig4", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig13", "fig14", "oracle", "ext", "ssd",
	"predictors", "warmup", "util", "kvserve",
}

// Job is one unit of prewarm work: a single trace generation, trace
// analysis or simulation, self-contained (it builds its own engine and
// RNG from the suite configuration) and safe to run concurrently with
// any other job. Running a job only fills a suite memo; rendering
// afterwards reads the same memo, so output is identical whether or not
// the job ran.
type Job struct {
	// Key is unique across the plan; used for dedup, reporting and the
	// job's profiler labels. Planner keys read
	// "<suite>|<kind>|<app>[/<detail>]"; prefix-parent keys read
	// "prefix|<app>@<scale>|...".
	Key string
	Run func()
}

// Phase groups jobs with no dependencies among them: all jobs of a
// phase may run concurrently, and a phase only starts after every
// earlier phase finished.
type Phase struct {
	Name string
	Jobs []Job
	// More, if set, is called when the phase starts (i.e. after all
	// earlier phases completed) and returns additional jobs whose
	// parameters depend on earlier results — e.g. Figure 14's
	// optimistic-HMM runs need GMT-Reuse's measured hit rate.
	More func() []Job
}

// Plan walks the requested experiments and collects the deduplicated
// set of jobs they will need, grouped into phases: trace generation
// first (the Kronecker/CSR graph build rides along via the lazy
// GraphSet), then the shared warm-up prefix parents of phased sweeps
// (so the simulate fan-out forks instead of serializing on prefix
// singleflights), then every statically known computation — the
// simulations and the per-app trace analyses of Table 2 and Figures 4
// and 7 — then dependent simulations. Every computation a driver reads
// is planned, so rendering after a prewarm is a pure memo read. The
// plan is still an optimization only: a job the planner misses is
// computed lazily (and sequentially) from the same memo when the
// experiment renders, so results never depend on planner completeness.
func Plan(s *Suite, experiments []string) []Phase {
	pl := &planner{seen: map[string]bool{}}
	for _, e := range experiments {
		pl.addExperiment(s, e)
	}
	phases := []Phase{{Name: "traces", Jobs: pl.traces}}
	if len(pl.prefixes) > 0 {
		phases = append(phases, Phase{Name: "prefixes", Jobs: pl.prefixes})
	}
	phases = append(phases, Phase{Name: "simulate", Jobs: pl.sims})
	if len(pl.more) > 0 {
		more := pl.more
		phases = append(phases, Phase{Name: "dependent", More: func() []Job {
			seen := map[string]bool{}
			var jobs []Job
			for _, f := range more {
				for _, j := range f() {
					if seen[j.Key] {
						continue
					}
					seen[j.Key] = true
					jobs = append(jobs, j)
				}
			}
			return jobs
		}})
	}
	return phases
}

type planner struct {
	seen     map[string]bool
	traces   []Job
	prefixes []Job
	sims     []Job
	more     []func() []Job
}

// allPolicies is BaM plus the three GMT policies, the sweep most
// figures run.
func allPolicies() []core.PolicyKind {
	return append([]core.PolicyKind{core.PolicyBaM}, Policies...)
}

func appNames(s *Suite) []string {
	names := make([]string, len(s.apps))
	for i, w := range s.apps {
		names[i] = w.Name()
	}
	return names
}

func (pl *planner) addExperiment(s *Suite, name string) {
	switch name {
	case "table1", "fig6":
		// Configuration-only: no traces, no simulations.
	case "table2", "fig7":
		pl.addTraces(s, appNames(s))
		for _, w := range s.Apps() {
			w := w
			pl.addSim(s.label+"|analyze|"+w.Name(), func() { s.characteristics(w) })
		}
	case "fig4":
		pl.addTraces(s, figure4Apps)
		for _, n := range figure4Apps {
			n := n
			pl.addSim(s.label+"|analyze|"+n+"/fig4", func() { s.figure4Result(n) })
		}
	case "fig8", "fig10", "util":
		pl.addPolicySweep(s, appNames(s), allPolicies())
	case "fig9":
		pl.addPolicySweep(s, appNames(s), []core.PolicyKind{core.PolicyReuse})
	case "fig11":
		ng, g := s.figure11Suites()
		pl.addPolicySweep(ng, appNames(ng), allPolicies())
		pl.addPolicySweep(g, appNames(g), allPolicies())
	case "fig12":
		suites := s.figure12Suites()
		for _, ratio := range figure12Ratios {
			sub := suites[ratio]
			pl.addPolicySweep(sub, appNames(sub),
				[]core.PolicyKind{core.PolicyBaM, core.PolicyReuse})
		}
	case "fig13":
		sub := s.figure13Suite()
		pl.addPolicySweep(sub, appNames(sub), allPolicies())
	case "fig14":
		pl.addPolicySweep(s, appNames(s),
			[]core.PolicyKind{core.PolicyBaM, core.PolicyReuse})
		for _, n := range appNames(s) {
			pl.addHMM(s, n, -1)
		}
		pl.more = append(pl.more, func() []Job {
			// By the dependent phase, the Reuse runs are memoized, so
			// reading the hit rates costs nothing.
			var jobs []Job
			for _, w := range s.Apps() {
				w := w
				rate := s.Run(w, core.PolicyReuse).Tier2HitRate()
				jobs = append(jobs, hmmJob(s, w, rate))
			}
			return jobs
		})
	case "oracle":
		pl.addPolicySweep(s, appNames(s),
			[]core.PolicyKind{core.PolicyBaM, core.PolicyReuse})
		for _, w := range s.Apps() {
			w := w
			pl.addSim(s.label+"|oracle|"+w.Name(), func() { s.RunOracle(w) })
		}
	case "ext":
		pl.addPolicySweep(s, appNames(s), []core.PolicyKind{core.PolicyReuse})
		for _, n := range appNames(s) {
			asyncKey, asyncCfg := s.reuseAsyncConfig()
			pl.addConfig(s, n, asyncKey, asyncCfg)
			pfKey, pfCfg := s.reusePrefetchConfig()
			pl.addConfig(s, n, pfKey, pfCfg)
		}
	case "ssd":
		pl.addTraces(s, SensitivityApps)
		for _, app := range SensitivityApps {
			for _, g := range SSDGens {
				for _, p := range []core.PolicyKind{core.PolicyBaM, core.PolicyReuse} {
					key, cfg := s.ssdGenConfig(g, p)
					pl.addConfig(s, app, key, cfg)
				}
			}
			for _, c := range SSDCounts {
				for _, p := range []core.PolicyKind{core.PolicyBaM, core.PolicyReuse} {
					key, cfg := s.ssdCountConfig(c, p)
					pl.addConfig(s, app, key, cfg)
				}
			}
		}
	case "predictors":
		pl.addPolicySweep(s, appNames(s), []core.PolicyKind{core.PolicyBaM})
		for _, n := range appNames(s) {
			for _, pk := range Predictors {
				key, cfg := s.predictorConfig(pk)
				pl.addConfig(s, n, key, cfg)
			}
		}
	case "kvserve":
		for _, p := range KVPolicies {
			key, cfg := s.kvConfig(p)
			pl.addConfigPhased(s, workload.KVServeName, key, cfg)
		}
	case "warmup":
		// The pipelining study's runs memoize the early hit rate they
		// read off the runtime's history (warmupRun), so they prewarm
		// like any other simulation.
		pl.addPolicySweep(s, warmupApps, []core.PolicyKind{core.PolicyBaM})
		for _, n := range warmupApps {
			w := appByName(s, n)
			for _, unpipelined := range []bool{false, true} {
				unpipelined := unpipelined
				pl.addSim(fmt.Sprintf("%s|warmup|%s/%v", s.label, n, unpipelined),
					func() { s.warmupRun(w, unpipelined) })
			}
		}
	}
}

// addTraces queues trace-generation jobs, one graph application first:
// the graph workloads share one lazily built GraphSet, so the first
// graph trace triggers the expensive Kronecker/CSR build while the
// regular traces generate on other workers.
func (pl *planner) addTraces(s *Suite, names []string) {
	var graphs, regular []string
	for _, n := range names {
		if isGraphApp(n) {
			graphs = append(graphs, n)
		} else {
			regular = append(regular, n)
		}
	}
	if len(graphs) > 0 {
		pl.addTrace(s, graphs[0])
	}
	for _, n := range regular {
		pl.addTrace(s, n)
	}
	for _, n := range graphs {
		pl.addTrace(s, n)
	}
}

func (pl *planner) addTrace(s *Suite, name string) {
	key := s.label + "|trace|" + name
	if pl.seen[key] {
		return
	}
	pl.seen[key] = true
	w := appByName(s, name)
	pl.traces = append(pl.traces, Job{Key: key, Run: func() { s.Trace(w) }})
}

func (pl *planner) addPolicySweep(s *Suite, names []string, policies []core.PolicyKind) {
	pl.addTraces(s, names)
	for _, n := range names {
		for _, p := range policies {
			p := p
			if s.phased {
				pl.addPrefix(s, n, s.config(p))
			}
			w := appByName(s, n)
			pl.addSim(s.label+"|run|"+n+"/"+p.String(), func() { s.Run(w, p) })
		}
	}
}

// addPrefix queues one warm-up parent build per canonical prefix class
// (core.PrefixConfig): the job key is the class key itself, global
// rather than label-prefixed, so sweep points from different sub-suites
// sharing a class (fig12's three ratios, TierOrder+Random anywhere)
// collapse to a single job.
func (pl *planner) addPrefix(s *Suite, name string, cfg core.Config) {
	if s.NoFork || !phasedEligible(cfg) {
		return
	}
	w := appByName(s, name)
	if cfg.FootprintPages == 0 {
		cfg.FootprintPages = int(w.Pages())
	}
	key := fmt.Sprintf("prefix|%s|gpu=%+v|cfg=%+v", s.dataKey(w), s.GPU, core.PrefixConfig(cfg))
	if pl.seen[key] {
		return
	}
	pl.seen[key] = true
	pl.prefixes = append(pl.prefixes, Job{Key: key, Run: func() { s.WarmPrefix(w, cfg) }})
}

func (pl *planner) addConfig(s *Suite, name, cfgKey string, cfg core.Config) {
	pl.addTrace(s, name)
	w := appByName(s, name)
	pl.addSim(s.label+"|cfg|"+name+"/"+cfgKey, func() { s.RunConfig(cfgKey, w, cfg) })
}

// addConfigPhased is addConfig for grids run via RunConfigPhased; it
// also queues the grid's shared warm-up parent.
func (pl *planner) addConfigPhased(s *Suite, name, cfgKey string, cfg core.Config) {
	pl.addTrace(s, name)
	pl.addPrefix(s, name, cfg)
	w := appByName(s, name)
	pl.addSim(s.label+"|cfg|"+name+"/"+cfgKey, func() { s.RunConfigPhased(cfgKey, w, cfg) })
}

func (pl *planner) addHMM(s *Suite, name string, rate float64) {
	pl.addTrace(s, name)
	j := hmmJob(s, appByName(s, name), rate)
	pl.addSim(j.Key, j.Run)
}

// addSim queues a job in the simulate phase unless the plan already
// holds its key.
func (pl *planner) addSim(key string, run func()) {
	if pl.seen[key] {
		return
	}
	pl.seen[key] = true
	pl.sims = append(pl.sims, Job{Key: key, Run: run})
}

func hmmJob(s *Suite, w workload.Workload, rate float64) Job {
	return Job{
		Key: fmt.Sprintf("%s|hmm|%s/%.3f", s.label, w.Name(), rate),
		Run: func() { s.RunHMM(w, rate) },
	}
}
