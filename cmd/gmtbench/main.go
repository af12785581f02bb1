// Command gmtbench regenerates the paper's tables and figures, plus the
// extension studies. Each experiment prints the same rows/series the
// paper reports, computed from deterministic simulations.
//
// Usage:
//
//	gmtbench [flags] [experiment ...]
//
// Experiments: table1, table2, fig4, fig6, fig7, fig8, fig9, fig10,
// fig11, fig12, fig13, fig14, oracle, ext, ssd, predictors, warmup,
// util, kvserve, and all (the default).
//
// Flags:
//
//	-t1 N        Tier-1 capacity in 64 KiB pages (default 1024 ≈ paper's 16 GB / 256)
//	-t2 N        Tier-2 capacity in pages (default 4096)
//	-osf F       oversubscription factor (default 2)
//	-dataseed N  dataset-synthesis seed for the Kronecker graph and the
//	             KV-serving request mix (default 42)
//	-quick       quarter-scale run (fast smoke of every experiment)
//	-json        emit rows as JSON instead of rendered tables
//	-svg DIR     additionally write SVG figures (fig6, fig8, fig9, fig12,
//	             fig14, ssd, kvserve) into DIR
//	-parallel N  worker goroutines prewarming traces and simulations
//	             (default GOMAXPROCS; 1 = fully sequential). Output is
//	             byte-identical for any N: workers only fill the result
//	             memo, rendering then replays the same sequential reads.
//	-nofork      disable cross-sweep-point sharing (warm-up prefix
//	             forking, canonical BaM run dedup, parent-trace reuse by
//	             the sensitivity sub-suites): every sweep point generates
//	             and simulates independently. Output is byte-identical
//	             either way — the flag exists to measure the sharing
//	             speedup honestly.
//	-benchjson P write a machine-readable benchmark report (schema
//	             gmt-bench-suite/v1: per-experiment wall clock and
//	             allocation deltas, prewarm job/hit counts, estimated
//	             speedup vs sequential) to P
//	-microbench  also run the in-process microbenchmarks (SingleRun,
//	             PerAccessHit, AccessBatch, ForkedRun, MissPath,
//	             EvictStorm) and attach them to the report under
//	             "microbench"; exits 1 when a hit- or miss-path bench
//	             breaks its 0 allocs/op gate
//	-comparebench P  compare this run's report against a committed
//	             gmt-bench-suite/v1 baseline at P and exit 1 on
//	             regression (wall clock beyond 1.25x + 100ms slack,
//	             allocation count beyond +1% + 10k objects; with
//	             -microbench also allocs/op above baseline or ns/op
//	             beyond 2x baseline)
//	-cpuprofile P  write a CPU profile (pprof) to P
//	-memprofile P  write an allocation profile (pprof) to P
//	-trace P       write a runtime execution trace to P
//	-timeout D   deadline for the prewarm phase, observed between pool
//	             jobs (an in-progress simulation finishes); on expiry
//	             gmtbench exits 1 without rendering
//	-version     print the build's module version and VCS info, then exit
//
// Profiles are finalized when the run completes successfully; the
// simulator packages themselves are banned from runtime/pprof (the
// norealtime discipline), so this command is the profiling entry point
// for the whole tree.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"github.com/gmtsim/gmt"
	"github.com/gmtsim/gmt/internal/buildinfo"
	"github.com/gmtsim/gmt/internal/exp"
	"github.com/gmtsim/gmt/internal/plot"
	"github.com/gmtsim/gmt/internal/workload"
)

// benchReport is the -benchjson output (schema gmt-bench-suite/v1).
type benchReport struct {
	Schema          string            `json:"schema"`
	Scale           workload.Scale    `json:"scale"`
	Parallel        int               `json:"parallel"`
	Prewarm         *benchPrewarm     `json:"prewarm,omitempty"`
	Experiments     []benchExperiment `json:"experiments"`
	Micro           []benchMicro      `json:"microbench,omitempty"`
	TotalWallMS     float64           `json:"total_wall_ms"`
	EstSequentialMS float64           `json:"est_sequential_ms"`
	SpeedupVsSeq    float64           `json:"speedup_vs_sequential"`
}

type benchPrewarm struct {
	Workers   int     `json:"workers"`
	Jobs      int     `json:"jobs"`
	Sims      int64   `json:"simulations"`
	CacheHits int64   `json:"cache_hits"`
	BusyMS    float64 `json:"busy_ms"`
	WallMS    float64 `json:"wall_ms"`
	// WorkerBusyMS is each pool worker's summed job time (len ==
	// workers): a skewed profile exposes a long-tail job pinning one
	// worker while the rest drained the queue and idled.
	WorkerBusyMS []float64    `json:"worker_busy_ms"`
	Phases       []benchPhase `json:"phases"`
	benchMem
}

// benchMem is the allocation and GC accounting attached to each phase
// of the v1 report: bytes and objects allocated during the phase
// (deltas of runtime.MemStats.TotalAlloc/Mallocs), live heap at its
// end, and the GC work the phase induced (deltas of PauseTotalNs and
// NumGC). gc_pauses_ns is the collector-pressure twin of mallocs: an
// allocation-heavy phase shows up in both, and the zero-alloc pipeline
// work is visible as both numbers collapsing together.
type benchMem struct {
	AllocBytes   uint64 `json:"alloc_bytes"`
	Mallocs      uint64 `json:"mallocs"`
	HeapAllocEnd uint64 `json:"heap_alloc_end_bytes"`
	GCPausesNS   uint64 `json:"gc_pauses_ns"`
	NumGC        uint32 `json:"num_gc"`
}

// measureMem runs fn and reports its allocation, heap, and GC deltas.
func measureMem(fn func()) benchMem {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return benchMem{
		AllocBytes:   after.TotalAlloc - before.TotalAlloc,
		Mallocs:      after.Mallocs - before.Mallocs,
		HeapAllocEnd: after.HeapAlloc,
		GCPausesNS:   after.PauseTotalNs - before.PauseTotalNs,
		NumGC:        after.NumGC - before.NumGC,
	}
}

type benchPhase struct {
	Name   string  `json:"name"`
	Jobs   int     `json:"jobs"`
	WallMS float64 `json:"wall_ms"`
}

type benchExperiment struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
	benchMem
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// workerFairness renders the pool's per-worker busy profile for the
// human-readable output (the JSON report carries the same data as
// worker_busy_ms). Skew is max/min busy time — the at-a-glance signal
// that a long-tail job pinned one worker while the rest idled. Empty
// for a single-worker pool, where there is nothing to compare.
func workerFairness(busyNS []int64) string {
	if len(busyNS) < 2 {
		return ""
	}
	min, max := busyNS[0], busyNS[0]
	var b strings.Builder
	b.WriteString("  worker busy:")
	for _, ns := range busyNS {
		if ns < min {
			min = ns
		}
		if ns > max {
			max = ns
		}
		fmt.Fprintf(&b, " %v", time.Duration(ns).Round(time.Millisecond))
	}
	if min <= 0 {
		b.WriteString(" (idle worker)")
	} else {
		fmt.Fprintf(&b, " (skew %.2fx)", float64(max)/float64(min))
	}
	return b.String()
}

// finalizeReport fills the derived fields of a v1 report from its
// measured parts. The sequential estimate is every experiment's wall
// time plus the prewarm pool's busy time (all jobs back to back on one
// worker); the parallel time it is compared against is the prewarm
// wall time plus the same rendering pass. Harness overhead outside
// those two — microbenchmarks, report encoding, flag setup — appears
// in total_wall_ms but must not dilute speedup_vs_sequential: both
// modes pay it equally, so it says nothing about the pool.
func finalizeReport(rep *benchReport) {
	var renderMS float64
	for _, e := range rep.Experiments {
		renderMS += e.WallMS
	}
	rep.EstSequentialMS = renderMS
	parallelMS := renderMS
	if rep.Prewarm != nil {
		rep.EstSequentialMS += rep.Prewarm.BusyMS
		parallelMS += rep.Prewarm.WallMS
	}
	if parallelMS > 0 {
		rep.SpeedupVsSeq = rep.EstSequentialMS / parallelMS
	} else {
		rep.SpeedupVsSeq = 1
	}
}

// checkScale rejects a suite scale before anything is built. The
// experiments run three-tier policies, so both tiers need a page; under
// -quick the check applies to the quartered capacities actually used.
func checkScale(s workload.Scale, quick bool) error {
	err := gmt.Scale{Tier1Pages: s.Tier1Pages, Tier2Pages: s.Tier2Pages, Oversubscription: s.Oversubscription}.Validate(gmt.Reuse)
	if err != nil && quick {
		return fmt.Errorf("%w (-quick divides -t1 and -t2 by 4)", err)
	}
	return err
}

func main() {
	t1 := flag.Int("t1", 1024, "Tier-1 capacity in 64 KiB pages")
	t2 := flag.Int("t2", 4096, "Tier-2 capacity in 64 KiB pages")
	osf := flag.Float64("osf", 2, "oversubscription factor")
	dataseed := flag.Int64("dataseed", 42, "dataset-synthesis seed (Kronecker graph, KV-serving mix)")
	quick := flag.Bool("quick", false, "quarter-scale fast run")
	jsonOut := flag.Bool("json", false, "emit rows as JSON")
	svgDir := flag.String("svg", "", "directory to write SVG figures into")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker goroutines prewarming simulations (1 = sequential)")
	nofork := flag.Bool("nofork", false,
		"disable warm-up prefix forking and cross-sweep-point sharing (byte-identical output, slower)")
	benchjson := flag.String("benchjson", "",
		"write a gmt-bench-suite/v1 JSON report to this path")
	microbench := flag.Bool("microbench", false,
		"also run the in-process microbenchmarks (SingleRun, PerAccessHit, AccessBatch, ForkedRun, MissPath, EvictStorm) and attach them to the report")
	comparebench := flag.String("comparebench", "",
		"compare this run against a committed gmt-bench-suite/v1 baseline and exit 1 on regression")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this path")
	traceFile := flag.String("trace", "", "write a runtime execution trace to this path")
	timeout := flag.Duration("timeout", 0,
		"deadline for the prewarm phase; on expiry remaining jobs are skipped and gmtbench exits 1")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println("gmtbench", buildinfo.Version())
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err == nil {
			err = trace.Start(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	writeSVG := func(name string, f *plot.Figure) {
		if *svgDir == "" {
			return
		}
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		path := filepath.Join(*svgDir, name+".svg")
		if err := os.WriteFile(path, []byte(f.SVG()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !*jsonOut {
			fmt.Printf("wrote %s\n", path)
		}
	}

	scale := workload.Scale{Tier1Pages: *t1, Tier2Pages: *t2, Oversubscription: *osf, DatasetSeed: *dataseed}
	if *quick {
		scale.Tier1Pages = *t1 / 4
		scale.Tier2Pages = *t2 / 4
	}
	if err := checkScale(scale, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "gmtbench:", err)
		os.Exit(2)
	}

	var suite *exp.Suite
	getSuite := func() *exp.Suite {
		if suite == nil {
			if !*jsonOut {
				fmt.Printf("building workload suite (T1=%d pages, T2=%d pages, OSF=%.1f)...\n\n",
					scale.Tier1Pages, scale.Tier2Pages, scale.Oversubscription)
			}
			suite = exp.NewSuite(scale)
			suite.NoFork = *nofork
		}
		return suite
	}

	order := exp.ExperimentNames

	// Expand "all" and validate names up front, so the planner sees the
	// complete job set before any worker starts. Dispatch itself lives in
	// exp.RunExperiment, shared with the gmtd daemon.
	var experiments []string
	for _, name := range flag.Args() {
		if name == "all" {
			experiments = append(experiments, order...)
			continue
		}
		if !exp.KnownExperiment(name) {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; choose from %v or 'all'\n", name, order)
			os.Exit(2)
		}
		experiments = append(experiments, name)
	}
	if len(experiments) == 0 {
		experiments = order
	}

	// The exp package is banned from reading wall time (the norealtime
	// analyzer covers everything outside cmd/), so inject a monotonic
	// clock for the prewarm report.
	harnessStart := time.Now()
	clock := func() int64 { return int64(time.Since(harnessStart)) }

	needsSuite := false
	for _, name := range experiments {
		if exp.NeedsSuite(name) {
			needsSuite = true
		}
	}

	// -timeout bounds the prewarm phase through the pool's context path:
	// workers observe the deadline between jobs, so expiry stops the run
	// at job granularity. Forcing the prewarm path even at -parallel 1
	// keeps the flag meaningful for sequential runs.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var prewarm *exp.Report
	var prewarmMem benchMem
	if (*parallel > 1 || *timeout > 0) && needsSuite {
		var rep exp.Report
		var perr error
		prewarmMem = measureMem(func() {
			rep, perr = exp.Prewarm(ctx, getSuite(), experiments, *parallel, clock)
		})
		if perr != nil {
			fmt.Fprintf(os.Stderr, "gmtbench: prewarm aborted after %d jobs: %v\n",
				rep.JobsPlanned, perr)
			os.Exit(1)
		}
		prewarm = &rep
		if !*jsonOut {
			fmt.Printf("prewarmed %d jobs on %d workers: %d simulations, %d memo hits [%v]\n",
				rep.JobsPlanned, rep.Workers, rep.Sims, rep.CacheHits,
				time.Duration(rep.WallNS).Round(time.Millisecond))
			if line := workerFairness(rep.WorkerBusyNS); line != "" {
				fmt.Printf("%s\n", line)
			}
			fmt.Println()
		}
	}

	var svgSink exp.SVGSink
	if *svgDir != "" {
		svgSink = writeSVG
	}
	var timings []benchExperiment
	execute := func(name string) {
		start := time.Now()
		var rows interface{}
		var text string
		mem := measureMem(func() { rows, text, _ = exp.RunExperiment(getSuite, name, svgSink) })
		timings = append(timings, benchExperiment{
			Name: name, WallMS: ms(time.Since(start)), benchMem: mem,
		})
		if *jsonOut {
			if err := exp.EncodeExperiment(os.Stdout, name, rows); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
		fmt.Println(text)
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	for _, name := range experiments {
		execute(name)
	}

	var micro []benchMicro
	if *microbench {
		micro = runMicrobench()
		if !*jsonOut {
			for _, m := range micro {
				fmt.Printf("microbench %-14s %12.1f ns/op %8d B/op %6d allocs/op\n",
					m.Name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
			}
			fmt.Println()
		}
		if errs := microGate(micro); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintf(os.Stderr, "gmtbench: microbench gate: %v\n", e)
			}
			os.Exit(1)
		}
	}

	if *benchjson != "" || *comparebench != "" {
		rep := benchReport{
			Schema:      "gmt-bench-suite/v1",
			Scale:       scale,
			Parallel:    *parallel,
			Experiments: timings,
			TotalWallMS: ms(time.Since(harnessStart)),
		}
		if prewarm != nil {
			bp := &benchPrewarm{
				Workers:   prewarm.Workers,
				Jobs:      prewarm.JobsPlanned,
				Sims:      prewarm.Sims,
				CacheHits: prewarm.CacheHits,
				BusyMS:    float64(prewarm.BusyNS) / 1e6,
				WallMS:    float64(prewarm.WallNS) / 1e6,
				benchMem:  prewarmMem,
			}
			for _, ns := range prewarm.WorkerBusyNS {
				bp.WorkerBusyMS = append(bp.WorkerBusyMS, float64(ns)/1e6)
			}
			for _, ph := range prewarm.Phases {
				bp.Phases = append(bp.Phases, benchPhase{
					Name: ph.Name, Jobs: ph.Jobs, WallMS: float64(ph.WallNS) / 1e6,
				})
			}
			rep.Prewarm = bp
		}
		finalizeReport(&rep)
		rep.Micro = micro
		if *benchjson != "" {
			data, err := json.MarshalIndent(rep, "", "  ")
			if err == nil {
				err = os.WriteFile(*benchjson, append(data, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if !*jsonOut {
				fmt.Printf("wrote %s\n", *benchjson)
			}
		}
		if *comparebench != "" {
			if errs := compareBench(*comparebench, rep); len(errs) > 0 {
				for _, e := range errs {
					fmt.Fprintf(os.Stderr, "gmtbench: regression: %v\n", e)
				}
				os.Exit(1)
			}
			if !*jsonOut {
				fmt.Printf("no benchmark regressions vs %s\n", *comparebench)
			}
		}
	}

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		trace.Stop()
	}
	if *memprofile != "" {
		runtime.GC() // settle the heap so the profile shows live objects accurately
		f, err := os.Create(*memprofile)
		if err == nil {
			err = pprof.Lookup("allocs").WriteTo(f, 0)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
