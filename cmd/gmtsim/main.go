// Command gmtsim runs one application under one tiering policy and
// prints the full metric breakdown — the single-run counterpart of
// gmtbench.
//
// Usage:
//
//	gmtsim [flags]
//
// Flags:
//
//	-app NAME      application (Table 2 name; default Srad)
//	-policy NAME   bam | tierorder | random | reuse | hmm (default reuse)
//	-t1, -t2       tier capacities in pages
//	-osf F         oversubscription factor
//	-warps N       concurrent warps
//	-seed N        RNG seed
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/gmtsim/gmt"
	"github.com/gmtsim/gmt/internal/buildinfo"
)

func main() {
	app := flag.String("app", "Srad", "application name")
	policy := flag.String("policy", "reuse", "bam|tierorder|random|reuse|hmm")
	t1 := flag.Int("t1", 1024, "Tier-1 pages")
	t2 := flag.Int("t2", 4096, "Tier-2 pages")
	osf := flag.Float64("osf", 2, "oversubscription factor")
	warps := flag.Int("warps", 256, "concurrent warps")
	seed := flag.Int64("seed", 1, "seed")
	traceFile := flag.String("trace", "", "run a gmt-trace file instead of a named app")
	async := flag.Bool("async-evict", false, "background Tier-1->Tier-2 placements (§5 extension)")
	prefetch := flag.Int("prefetch", 0, "sequential prefetch degree")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println("gmtsim", buildinfo.Version())
		return
	}

	p, err := gmt.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policy)
		os.Exit(2)
	}
	scale := gmt.Scale{Tier1Pages: *t1, Tier2Pages: *t2, Oversubscription: *osf}
	if err := checkFlags(scale, p, *warps); err != nil {
		fmt.Fprintln(os.Stderr, "gmtsim:", err)
		os.Exit(2)
	}

	cfg := gmt.DefaultConfig()
	cfg.Policy = p
	cfg.Tier1Pages = *t1
	cfg.Tier2Pages = *t2
	cfg.Warps = *warps
	cfg.Seed = *seed
	cfg.AsyncEviction = *async
	cfg.PrefetchDegree = *prefetch

	var res gmt.Result
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		trace, err := gmt.ReadTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res = gmt.RunTrace(cfg, *traceFile, trace)
	} else {
		var w gmt.Workload
		for _, cand := range gmt.Suite(scale) {
			if strings.EqualFold(cand.Name(), *app) {
				w = cand
				break
			}
		}
		if w == nil {
			fmt.Fprintf(os.Stderr, "unknown app %q; choose from %v\n", *app, gmt.WorkloadNames())
			os.Exit(2)
		}
		res = gmt.Run(cfg, w)
	}
	fmt.Printf("%s under %s (T1=%d, T2=%d pages, OSF=%.1f, %d warps)\n",
		res.App, res.Policy, *t1, *t2, *osf, *warps)
	fmt.Printf("  virtual wall time : %v\n", res.WallTime)
	fmt.Printf("  accesses          : %d (T1 hits %d, T2 hits %d, SSD fills %d, joins %d)\n",
		res.Accesses, res.Tier1Hits, res.Tier2Hits, res.SSDFills, res.InFlightJoins)
	fmt.Printf("  tier-2 lookups    : %d (%d wasteful)\n", res.Tier2Lookups, res.WastefulLookups)
	fmt.Printf("  evictions         : %d to T2 (%d backfill), %d to SSD, %d dropped\n",
		res.EvictionsToTier2, res.BackfillPlaced, res.EvictionsToSSD, res.EvictionsDropped)
	fmt.Printf("  SSD I/O           : %d reads, %d writes\n", res.SSDReads, res.SSDWrites)
	fmt.Printf("  PCIe page moves   : %d to host, %d to GPU\n", res.PagesToHost, res.PagesToGPU)
	if res.Predictions > 0 {
		fmt.Printf("  prediction acc.   : %.1f%% over %d predictions\n",
			100*res.PredictionAccuracy, res.Predictions)
	}
	fmt.Printf("  tier-2 hit rate   : %.1f%%\n", 100*res.Tier2HitRate)
}

// checkFlags rejects a run configuration before anything is built: the
// tier sizes and oversubscription factor must pass gmt.Scale.Validate
// for the chosen policy, and at least one warp must run.
func checkFlags(scale gmt.Scale, p gmt.Policy, warps int) error {
	if err := scale.Validate(p); err != nil {
		return err
	}
	if warps < 1 {
		return fmt.Errorf("need at least 1 warp, got %d", warps)
	}
	return nil
}
