package exp

import (
	"context"
	"strings"
	"testing"

	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/workload"
)

// TestSuiteSeedInvalidation is the stale-memoization regression: memo
// keys used to be (app, policy) only, so mutating Suite.Seed between
// runs returned results computed under the old seed.
func TestSuiteSeedInvalidation(t *testing.T) {
	s := NewSuite(testScale())
	w := s.Apps()[1] // Pathfinder: cheap
	first := s.Run(w, core.PolicyRandom)
	if got := s.Simulations(); got != 1 {
		t.Fatalf("simulations after first run = %d, want 1", got)
	}
	s.Seed = 99
	s.Run(w, core.PolicyRandom)
	if got := s.Simulations(); got != 2 {
		t.Fatalf("changing Seed did not re-simulate: %d simulations, want 2", got)
	}
	// Restoring the seed must find the original memoized result again,
	// bit for bit, without another simulation.
	s.Seed = 1
	third := s.Run(w, core.PolicyRandom)
	if got := s.Simulations(); got != 2 {
		t.Fatalf("restored Seed re-simulated: %d simulations, want 2", got)
	}
	if third != first {
		t.Fatal("restored Seed returned a different result than the original run")
	}
}

// TestSuiteGPUInvalidation: same regression for the GPU configuration.
func TestSuiteGPUInvalidation(t *testing.T) {
	s := NewSuite(testScale())
	w := s.Apps()[1]
	first := s.Run(w, core.PolicyBaM)
	s.GPU.Warps /= 2
	second := s.Run(w, core.PolicyBaM)
	if got := s.Simulations(); got != 2 {
		t.Fatalf("changing GPU config did not re-simulate: %d simulations, want 2", got)
	}
	if first.WallTime == second.WallTime {
		t.Fatal("halving the warp count left the wall time unchanged")
	}
}

// TestSuiteHMMSeedInvalidation covers the RunHMM memo path.
func TestSuiteHMMSeedInvalidation(t *testing.T) {
	s := NewSuite(testScale())
	w := s.Apps()[1]
	s.RunHMM(w, -1)
	s.Seed = 7
	s.RunHMM(w, -1)
	if got := s.Simulations(); got != 2 {
		t.Fatalf("changing Seed did not re-simulate HMM: %d simulations, want 2", got)
	}
}

func TestSuiteCacheHitCounter(t *testing.T) {
	s := NewSuite(testScale())
	w := s.Apps()[1]
	s.Run(w, core.PolicyBaM)
	s.Run(w, core.PolicyBaM)
	s.Run(w, core.PolicyBaM)
	if sims, hits := s.Counters(); sims != 1 || hits != 2 {
		t.Fatalf("sims=%d hits=%d, want 1 and 2", sims, hits)
	}
}

// TestPlanDedup: overlapping experiments must not schedule the same
// simulation twice.
func TestPlanDedup(t *testing.T) {
	s := NewSuite(testScale())
	phases := Plan(s, []string{"fig8", "fig10", "util", "fig9"})
	seen := map[string]bool{}
	traces, sims := 0, 0
	for _, ph := range phases {
		for _, j := range ph.Jobs {
			if seen[j.Key] {
				t.Fatalf("duplicate job %s", j.Key)
			}
			seen[j.Key] = true
			switch ph.Name {
			case "traces":
				traces++
			case "simulate":
				sims++
			}
		}
	}
	// 9 traces; 9 apps x (BaM + 3 policies), with fig9's Reuse runs and
	// fig10/util's sweeps all deduplicated into the same 36 jobs.
	if traces != 9 || sims != 36 {
		t.Fatalf("planned traces=%d sims=%d, want 9 and 36", traces, sims)
	}
}

// TestPlanGraphTraceFirst: the first trace job must be a graph app, so
// the expensive shared Kronecker/CSR build starts before anything else.
func TestPlanGraphTraceFirst(t *testing.T) {
	s := NewSuite(testScale())
	phases := Plan(s, []string{"table2"})
	if len(phases[0].Jobs) == 0 {
		t.Fatal("no trace jobs planned")
	}
	first := phases[0].Jobs[0].Key
	if !strings.Contains(first, "|trace|") || !isGraphApp(first[strings.LastIndex(first, "|")+1:]) {
		t.Fatalf("first trace job %q is not a graph app", first)
	}
}

// TestPrewarmCoversRendering is the planner-drift gate: after a prewarm
// of every experiment, rendering must be a pure memo read — zero
// additional simulations and zero trace analyses, on the first render
// and on a second one. If a driver grows a computation the planner
// doesn't know about, or one its memo doesn't hold, this fails.
func TestPrewarmCoversRendering(t *testing.T) {
	s := NewSuite(workload.Scale{Tier1Pages: 128, Tier2Pages: 512, Oversubscription: 2})
	rep, err := Prewarm(context.Background(), s, ExperimentNames, 3, nil)
	if err != nil {
		t.Fatalf("prewarm failed: %v", err)
	}
	if rep.JobsPlanned == 0 || rep.Sims == 0 || s.analyses.Load() == 0 {
		t.Fatalf("prewarm did nothing: %+v, %d analyses", rep, s.analyses.Load())
	}
	for render := 1; render <= 2; render++ {
		sims0, _ := s.Counters()
		analyses0 := s.analyses.Load()
		for _, name := range ExperimentNames {
			if _, _, ok := RunExperiment(func() *Suite { return s }, name, nil); !ok {
				t.Fatalf("unknown experiment %q", name)
			}
		}
		sims1, _ := s.Counters()
		if sims1 != sims0 {
			t.Fatalf("render %d ran %d simulations the planner missed", render, sims1-sims0)
		}
		if n := s.analyses.Load() - analyses0; n != 0 {
			t.Fatalf("render %d ran %d trace analyses the planner missed", render, n)
		}
	}
}

// TestRunJobsPanicPropagates: a failing simulation must surface the
// same way it would sequentially.
func TestRunJobsPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the job's panic", r)
		}
	}()
	zero := func() int64 { return 0 }
	runJobs(context.Background(), "", []Job{
		{Key: "ok", Run: func() {}},
		{Key: "bad", Run: func() { panic("boom") }},
	}, 2, zero, nil)
	t.Fatal("runJobs returned despite a panicking job")
}
