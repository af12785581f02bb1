package exp

import (
	"fmt"

	"github.com/gmtsim/gmt/internal/pcie"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/stats"
	"github.com/gmtsim/gmt/internal/workload"
	"github.com/gmtsim/gmt/internal/xfer"
)

// Figure4Result holds the instrumentation behind Figure 4: the VTD ->
// reuse-distance correlation (4a) and per-page eviction RRD series
// (4b/4c) for MultiVectorAdd and PageRank.
type Figure4Result struct {
	App            string
	Slope, Offset  float64
	Correlation    float64
	SeriesSampled  int
	ConstantSeries int // pages whose successive eviction RRDs vary <25%
	Alternating    int // pages whose successive RRDs alternate up/down
}

// figure4Apps are the two applications §2.1.3's motivating study
// instruments.
var figure4Apps = []string{"MultiVectorAdd", "PageRank"}

// figure4Result analyzes one application for Figure 4, once per
// fingerprint; the memo keeps only the summary, not the analysis's
// eviction and pair series.
func (s *Suite) figure4Result(name string) Figure4Result {
	res, _ := s.dataSuite().fig4.get(name+s.Fingerprint(), func() Figure4Result {
		s.analyses.Add(1)
		a := workload.Analyze(name, s.Trace(appByName(s, name)), s.Scale, 64*1024, 20_000)
		m, b, r, _ := a.PairCorrelation()
		res := Figure4Result{App: name, Slope: m, Offset: b, Correlation: r}
		for _, series := range a.EvictionSeries(2) {
			res.SeriesSampled++
			if isNearConstant(series) {
				res.ConstantSeries++
			}
			if isAlternating(series) {
				res.Alternating++
			}
		}
		return res
	})
	return res
}

// Figure4 instruments MultiVectorAdd and PageRank exactly as §2.1.3's
// motivating study does.
func Figure4(s *Suite) ([]Figure4Result, *stats.Table) {
	t := stats.NewTable("Figure 4: VTD vs reuse distance (a) and per-page eviction RRD patterns (b, c)",
		"Application", "Slope m", "Offset b", "Pearson r", "Pages sampled", "Constant-RRD", "Alternating")
	var out []Figure4Result
	for _, name := range figure4Apps {
		res := s.figure4Result(name)
		out = append(out, res)
		t.AddRow(res.App, fmt.Sprintf("%.3f", res.Slope), fmt.Sprintf("%.1f", res.Offset),
			fmt.Sprintf("%.3f", res.Correlation), fmt.Sprintf("%d", res.SeriesSampled),
			fmt.Sprintf("%d", res.ConstantSeries), fmt.Sprintf("%d", res.Alternating))
	}
	return out, t
}

func isNearConstant(series []int64) bool {
	for i := 1; i < len(series); i++ {
		lo, hi := series[i-1], series[i]
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo <= 0 || float64(hi)/float64(lo) > 1.25 {
			return false
		}
	}
	return true
}

func isAlternating(series []int64) bool {
	if len(series) < 3 {
		return false
	}
	for i := 2; i < len(series); i++ {
		d1 := series[i-1] - series[i-2]
		d2 := series[i] - series[i-1]
		if d1 == 0 || d2 == 0 || (d1 > 0) == (d2 > 0) {
			return false
		}
	}
	return true
}

// Figure6aRow is the unloaded completion time for transferring n
// non-contiguous pages under each mechanism (Figure 6a).
type Figure6aRow struct {
	Pages            int
	DMAMicros        int64
	ZeroCopy32Micros int64
}

// Figure6a sweeps the non-contiguous batch size.
func Figure6a(cfg xfer.Config) ([]Figure6aRow, *stats.Table) {
	linkBps := int64(16 * pcie.Gen3LaneBytesPerS)
	t := stats.NewTable("Figure 6a: transfer time for N non-contiguous pages (µs; lower is better)",
		"Pages", "cudaMemcpyAsync", "Zero-copy (32T)", "Winner")
	var rows []Figure6aRow
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512} {
		dma := cfg.DMATime(n, linkBps) / sim.Microsecond
		zc := cfg.ZeroCopyTime(n, 32, linkBps) / sim.Microsecond
		rows = append(rows, Figure6aRow{Pages: n, DMAMicros: dma, ZeroCopy32Micros: zc})
		winner := "cudaMemcpyAsync"
		if zc < dma {
			winner = "zero-copy"
		}
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", dma), fmt.Sprintf("%d", zc), winner)
	}
	return rows, t
}

// Figure6bRow is the delivered bandwidth at one zipf skew for each
// transfer scheme (Figure 6b).
type Figure6bRow struct {
	Skew float64
	// GB/s delivered by each scheme.
	DMA, ZeroCopy, Hybrid8, Hybrid16, Hybrid32 float64
}

// Figure6b sweeps zipf skew: threads repeatedly draw page addresses,
// only accesses missing a GPU-resident hot set become transfers (higher
// skew concentrates accesses on resident pages, so fewer pages move per
// batch — §2.3: "higher skew implies fewer distinct pages"), and the
// delivered transfer bandwidth is measured per scheme. The threads
// available for a cooperative zero-copy transfer are the faulting
// threads of the batch, which is what separates Hybrid-8T/16T/32T.
func Figure6b(cfg xfer.Config) ([]Figure6bRow, *stats.Table) {
	const (
		pages        = 4096
		residentSize = 3072
		warmupDraws  = 60_000
		batchThreads = 256
		batches      = 48
	)
	linkBps := int64(16 * pcie.Gen3LaneBytesPerS)
	t := stats.NewTable("Figure 6b: delivered bandwidth (GB/s) for zipf page accesses",
		"Skew", "cudaMemcpyAsync", "Zero-copy", "Hybrid-8T", "Hybrid-16T", "Hybrid-32T")
	var rows []Figure6bRow
	for skew := 0.0; skew <= 1.001; skew += 0.125 {
		z := workload.NewZipfStream(pages, skew, warmupDraws+batchThreads*batches, int64(skew*1000)+3)
		// Warm the GPU-resident hot set: the pages the kernel has
		// already pulled in. High skew concentrates later accesses on
		// this set, so few pages need transferring per batch.
		resident := make(map[int64]bool, residentSize)
		for i := 0; i < warmupDraws && len(resident) < residentSize; i++ {
			a, ok := z.Next()
			if !ok {
				break
			}
			resident[int64(a.Page)] = true
		}
		var totals Figure6bRow
		totals.Skew = skew
		measured := 0
		for b := 0; b < batches; b++ {
			unique := map[int64]bool{}
			missingThreads := 0
			for i := 0; i < batchThreads; i++ {
				a, ok := z.Next()
				if !ok {
					break
				}
				p := int64(a.Page)
				if resident[p] {
					continue
				}
				missingThreads++
				unique[p] = true
			}
			u := len(unique)
			if u == 0 {
				continue
			}
			measured++
			threads := missingThreads
			if threads > 32 {
				threads = 32 // a warp is the cooperative unit
			}
			bytes := float64(u) * float64(cfg.PageSize)
			bw := func(tm sim.Time) float64 {
				if tm <= 0 {
					return 0
				}
				return bytes / float64(tm) // bytes per ns == GB/s
			}
			totals.DMA += bw(cfg.DMATime(u, linkBps))
			totals.ZeroCopy += bw(cfg.ZeroCopyTime(u, threads, linkBps))
			for _, x := range []int{8, 16, 32} {
				h := cfg
				h.HybridX = x
				tm, _ := h.HybridTime(u, missingThreads, linkBps)
				if m := h.Choose(u, missingThreads); m == xfer.ZeroCopy {
					tm = h.ZeroCopyTime(u, threads, linkBps)
				}
				switch x {
				case 8:
					totals.Hybrid8 += bw(tm)
				case 16:
					totals.Hybrid16 += bw(tm)
				case 32:
					totals.Hybrid32 += bw(tm)
				}
			}
		}
		if measured > 0 {
			n := float64(measured)
			totals.DMA /= n
			totals.ZeroCopy /= n
			totals.Hybrid8 /= n
			totals.Hybrid16 /= n
			totals.Hybrid32 /= n
		}
		rows = append(rows, totals)
		t.AddRow(fmt.Sprintf("%.3f", skew),
			fmt.Sprintf("%.2f", totals.DMA), fmt.Sprintf("%.2f", totals.ZeroCopy),
			fmt.Sprintf("%.2f", totals.Hybrid8), fmt.Sprintf("%.2f", totals.Hybrid16),
			fmt.Sprintf("%.2f", totals.Hybrid32))
	}
	return rows, t
}
