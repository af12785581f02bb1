// Package gmt is the public API of the GMT reproduction: a
// GPU-orchestrated three-tier memory runtime (GPU memory, host memory,
// NVMe SSD) evaluated on a deterministic discrete-event simulation of
// the paper's platform.
//
// The package lets a user run any of the paper's placement policies
// (BaM's 2-tier baseline, GMT-TierOrder, GMT-Random, GMT-Reuse) and the
// CPU-orchestrated HMM comparator over the paper's nine applications —
// or over custom page-access traces — and inspect wall time, hit
// breakdowns, SSD traffic, and predictor accuracy.
//
//	cfg := gmt.DefaultConfig()
//	cfg.Policy = gmt.Reuse
//	for _, w := range gmt.Suite(gmt.DefaultScale()) {
//		res := gmt.Run(cfg, w)
//		fmt.Println(w.Name(), res.WallTime, res.Tier2HitRate)
//	}
//
// Internals (the simulation substrates, policies, and experiment
// drivers) live under internal/; see DESIGN.md for the system inventory.
package gmt

import (
	"fmt"
	"io"
	"math"
	"time"

	"github.com/gmtsim/gmt/internal/baseline"
	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/stats"
	"github.com/gmtsim/gmt/internal/tier"
	"github.com/gmtsim/gmt/internal/workload"
)

// Policy selects the memory-tiering system to simulate.
type Policy int

// The systems evaluated in the paper.
const (
	// BaM is the 2-tier GPU-orchestrated baseline (GPU memory + SSD).
	BaM Policy = iota
	// TierOrder places every Tier-1 victim into host memory (§2.1.1).
	TierOrder
	// Random coin-flips victims between host memory and SSD (§2.1.2).
	Random
	// Reuse is GMT-Reuse: RRD-predicted placement (§2.1.3).
	Reuse
	// HMM is the CPU-orchestrated 3-tier comparator (§3.6).
	HMM
	// Oracle is the offline Belady-style upper bound GMT-Reuse
	// approximates: victim selection and placement with perfect future
	// knowledge of the trace.
	Oracle
)

func (p Policy) String() string {
	switch p {
	case BaM:
		return "BaM"
	case TierOrder:
		return "GMT-TierOrder"
	case Random:
		return "GMT-Random"
	case Reuse:
		return "GMT-Reuse"
	case HMM:
		return "HMM"
	case Oracle:
		return "GMT-Oracle"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Access is one coalesced 64 KiB-page reference issued by a warp.
type Access struct {
	Page  int64
	Write bool
}

// Workload supplies a named, deterministic page-access trace.
type Workload interface {
	Name() string
	// Pages is the dataset footprint in pages.
	Pages() int64
	// Trace returns the full access sequence.
	Trace() []Access
}

// Scale sizes workloads relative to the memory tiers, in 64 KiB pages.
type Scale struct {
	Tier1Pages       int
	Tier2Pages       int
	Oversubscription float64
	// DatasetSeed seeds dataset synthesis (Kronecker graph generation,
	// the KV-serving request mix). Zero means the historical default
	// seed 42, so existing scales produce byte-identical datasets.
	DatasetSeed int64
}

// DefaultScale is the paper's default configuration (Tier-2 = 4x
// Tier-1, oversubscription factor 2) at 1/256 of the paper's absolute
// capacities.
func DefaultScale() Scale {
	s := workload.DefaultScale()
	return Scale{Tier1Pages: s.Tier1Pages, Tier2Pages: s.Tier2Pages, Oversubscription: s.Oversubscription}
}

// Validate reports the first reason s cannot size a run under policy p:
// Tier-1 must hold at least one page, Tier-2 at least one page for every
// policy with a second tier (all but BaM) and none may be negative, and
// the oversubscription factor must be finite and positive.
func (s Scale) Validate(p Policy) error {
	switch {
	case s.Tier1Pages < 1:
		return fmt.Errorf("Tier-1 capacity must be at least 1 page, got %d", s.Tier1Pages)
	case s.Tier2Pages < 0:
		return fmt.Errorf("Tier-2 capacity must not be negative, got %d", s.Tier2Pages)
	case p != BaM && s.Tier2Pages < 1:
		return fmt.Errorf("Tier-2 capacity must be at least 1 page for a three-tier policy, got %d", s.Tier2Pages)
	case math.IsNaN(s.Oversubscription) || math.IsInf(s.Oversubscription, 0) || s.Oversubscription <= 0:
		return fmt.Errorf("oversubscription factor must be finite and > 0, got %v", s.Oversubscription)
	}
	return nil
}

func (s Scale) internal() workload.Scale {
	return workload.Scale{
		Tier1Pages:       s.Tier1Pages,
		Tier2Pages:       s.Tier2Pages,
		Oversubscription: s.Oversubscription,
		DatasetSeed:      s.DatasetSeed,
	}
}

// Config parameterizes a simulation run.
type Config struct {
	Policy Policy

	// Tier capacities in 64 KiB pages.
	Tier1Pages int
	Tier2Pages int

	// Warps is the number of concurrently executing warps;
	// ComputePerAccess is each warp's busy time per coalesced access.
	Warps            int
	ComputePerAccess time.Duration

	// Seed drives all randomized decisions.
	Seed int64

	// GMT-Reuse knobs (ignored by other policies): the VTD sampling
	// pipeline and §2.2's backfill heuristic. Zero values take the
	// paper defaults; set BackfillThreshold above 1 to disable the
	// heuristic.
	SampleTarget      int
	SampleBatch       int
	BackfillThreshold float64

	// AsyncEviction performs Tier-1 -> Tier-2 placements in the
	// background (the paper's §5 future-work direction).
	AsyncEviction bool
	// PrefetchDegree enables sequential prefetch of up to this many
	// successor pages on each demand SSD fill (never evicting for
	// them).
	PrefetchDegree int
	// HistorySample, when positive, records a HistoryPoint every that
	// many accesses into Result.History (GMT policies only). Useful
	// for warmup curves.
	HistorySample int

	// Tier2Policy selects the Tier-2 replacement policy by name
	// ("clock", "fifo", "lru-2", "2q"). Empty keeps the historical
	// per-policy defaults. Ignored by BaM (no Tier-2) and HMM (the
	// comparator manages its own page cache). Run panics on an unknown
	// name; validate external input with tier.ParseStorePolicy via the
	// serving API instead.
	Tier2Policy string

	// TrackTier2Reuse records time-to-first-reuse for every Tier-2
	// reload and reports the percentiles in Result.Tier2ReuseP50/P99.
	TrackTier2Reuse bool
}

// HistoryPoint is a cumulative metrics snapshot partway through a run.
type HistoryPoint struct {
	Accesses     int64
	Tier1Hits    int64
	Tier2Hits    int64
	SSDReads     int64
	Tier2HitRate float64
}

// DefaultConfig mirrors the paper's default platform at DefaultScale.
func DefaultConfig() Config {
	s := DefaultScale()
	g := gpu.DefaultConfig()
	return Config{
		Policy:           Reuse,
		Tier1Pages:       s.Tier1Pages,
		Tier2Pages:       s.Tier2Pages,
		Warps:            g.Warps,
		ComputePerAccess: time.Duration(g.ComputePerAccess),
		Seed:             1,
	}
}

// Result reports a run's outcome. WallTime is virtual (simulated) time.
type Result struct {
	App    string
	Policy string

	WallTime time.Duration

	Accesses      int64
	Tier1Hits     int64
	Tier2Hits     int64
	SSDFills      int64
	InFlightJoins int64

	Tier2Lookups    int64
	WastefulLookups int64

	EvictionsToTier2 int64
	EvictionsToSSD   int64
	EvictionsDropped int64
	BackfillPlaced   int64

	SSDReads, SSDWrites int64
	PagesToHost         int64
	PagesToGPU          int64

	Predictions        int64
	PredictionAccuracy float64
	Tier2HitRate       float64

	// Tier-2 time-to-first-reuse percentiles (virtual time), populated
	// only when Config.TrackTier2Reuse is set and at least one Tier-2
	// reload occurred; Tier2ReuseCount is the sample count.
	Tier2ReuseP50   time.Duration
	Tier2ReuseP99   time.Duration
	Tier2ReuseCount int64

	// History holds periodic snapshots when Config.HistorySample is
	// set (empty otherwise).
	History []HistoryPoint
}

func fromStats(m stats.Run) Result {
	return Result{
		App:                m.App,
		Policy:             m.Policy,
		WallTime:           time.Duration(m.WallTime),
		Accesses:           m.Accesses,
		Tier1Hits:          m.Tier1Hits,
		Tier2Hits:          m.Tier2Hits,
		SSDFills:           m.SSDFills,
		InFlightJoins:      m.InFlightJoins,
		Tier2Lookups:       m.Tier2Lookups,
		WastefulLookups:    m.WastefulLookups,
		EvictionsToTier2:   m.EvictionsToTier2,
		EvictionsToSSD:     m.EvictionsToSSD,
		EvictionsDropped:   m.EvictionsDropped,
		BackfillPlaced:     m.BackfillPlaced,
		SSDReads:           m.SSDReads,
		SSDWrites:          m.SSDWrites,
		PagesToHost:        m.PagesToHost,
		PagesToGPU:         m.PagesToGPU,
		Predictions:        m.Predictions,
		PredictionAccuracy: m.PredictionAccuracy(),
		Tier2HitRate:       m.Tier2HitRate(),
		Tier2ReuseP50:      time.Duration(m.Tier2ReuseP50),
		Tier2ReuseP99:      time.Duration(m.Tier2ReuseP99),
		Tier2ReuseCount:    m.Tier2ReuseCount,
	}
}

// Speedup reports base's wall time over r's: how much faster r is.
func (r Result) Speedup(base Result) float64 {
	if r.WallTime == 0 {
		return 0
	}
	return float64(base.WallTime) / float64(r.WallTime)
}

// Run simulates workload w under cfg.
//
//gmt:blocking
func Run(cfg Config, w Workload) Result {
	return RunTrace(cfg, w.Name(), w.Trace())
}

// RunTrace simulates a custom access trace under cfg.
func RunTrace(cfg Config, name string, trace []Access) Result {
	internalTrace := make([]gpu.Access, len(trace))
	footprint := 0
	for i, a := range trace {
		internalTrace[i] = gpu.Access{Page: tier.PageID(a.Page), Write: a.Write}
		if int(a.Page)+1 > footprint {
			footprint = int(a.Page) + 1
		}
	}
	gcfg := gpu.DefaultConfig()
	if cfg.Warps > 0 {
		gcfg.Warps = cfg.Warps
	}
	if cfg.ComputePerAccess > 0 {
		gcfg.ComputePerAccess = sim.Time(cfg.ComputePerAccess)
	}
	eng := sim.NewEngine()
	var mm gpu.MemoryManager
	var snapshot func() stats.Run
	var history func() []stats.Run
	if cfg.Policy == HMM {
		h := baseline.DefaultHMMConfig()
		h.Tier1Pages = cfg.Tier1Pages
		h.PageCachePages = cfg.Tier2Pages
		h.Seed = cfg.Seed
		hm := baseline.NewHMM(eng, h)
		mm, snapshot = hm, hm.Snapshot
	} else {
		c := core.DefaultConfig()
		c.Policy = internalPolicy(cfg.Policy)
		c.Tier1Pages = cfg.Tier1Pages
		c.Tier2Pages = cfg.Tier2Pages
		c.Seed = cfg.Seed
		c.AsyncEviction = cfg.AsyncEviction
		c.PrefetchDegree = cfg.PrefetchDegree
		c.HistorySample = cfg.HistorySample
		c.TrackTier2Reuse = cfg.TrackTier2Reuse
		if cfg.Tier2Policy != "" {
			p, err := tier.ParseStorePolicy(cfg.Tier2Policy)
			if err != nil {
				panic("gmt: " + err.Error())
			}
			c.Tier2Policy = p
		}
		// Presize the runtime's dense page directory to the trace's
		// page-ID bound so the per-access path never grows it.
		c.FootprintPages = footprint
		if cfg.SampleTarget > 0 {
			c.SampleTarget = cfg.SampleTarget
		}
		if cfg.SampleBatch > 0 {
			c.SampleBatch = cfg.SampleBatch
		}
		if cfg.BackfillThreshold > 0 {
			c.BackfillThreshold = cfg.BackfillThreshold
		}
		if cfg.Policy == Oracle {
			// The oracle's future must match the stream the runtime
			// sees: barrier tokens are handled by the GPU and never
			// reach the memory manager.
			future := make([]tier.PageID, 0, len(trace))
			for _, a := range trace {
				if a.Page >= 0 {
					future = append(future, tier.PageID(a.Page))
				}
			}
			c.Future = future
		}
		rt := core.NewRuntime(eng, c)
		mm, snapshot, history = rt, rt.Snapshot, rt.History
	}
	g := gpu.New(eng, gcfg, &gpu.SliceStream{Trace: internalTrace}, mm)
	g.Launch()
	eng.Run()
	if !g.Done() {
		panic("gmt: kernel did not finish (deadlocked configuration)")
	}
	m := snapshot()
	m.App = name
	m.WallTime = eng.Now()
	res := fromStats(m)
	if history != nil {
		for _, h := range history() {
			res.History = append(res.History, HistoryPoint{
				Accesses:     h.Accesses,
				Tier1Hits:    h.Tier1Hits,
				Tier2Hits:    h.Tier2Hits,
				SSDReads:     h.SSDReads,
				Tier2HitRate: h.Tier2HitRate(),
			})
		}
	}
	return res
}

func internalPolicy(p Policy) core.PolicyKind {
	switch p {
	case BaM:
		return core.PolicyBaM
	case TierOrder:
		return core.PolicyTierOrder
	case Random:
		return core.PolicyRandom
	case Reuse:
		return core.PolicyReuse
	case Oracle:
		return core.PolicyOracle
	default:
		panic(fmt.Sprintf("gmt: policy %v has no core runtime", p))
	}
}

// wrapped adapts an internal workload to the public interface.
type wrapped struct {
	inner workload.Workload
}

func (w wrapped) Name() string { return w.inner.Name() }
func (w wrapped) Pages() int64 { return w.inner.Pages() }
func (w wrapped) Trace() []Access {
	tr := w.inner.Trace()
	out := make([]Access, len(tr))
	for i, a := range tr {
		out[i] = Access{Page: int64(a.Page), Write: a.Write}
	}
	return out
}

// Suite builds the paper's nine applications (Table 2) at the given
// scale, in Table 2 order.
func Suite(s Scale) []Workload {
	ws := workload.All(s.internal())
	out := make([]Workload, len(ws))
	for i, w := range ws {
		out[i] = wrapped{inner: w}
	}
	return out
}

// KVServe builds the tiered KV-cache serving workload at the given
// scale: an open-loop LLM-serving trace where pages are KV blocks (see
// internal/workload's generator). It is not part of Suite's nine
// applications; the serving-policy experiment requests it explicitly.
func KVServe(s Scale) Workload {
	return wrapped{inner: workload.NewKVServe(s.internal())}
}

// WorkloadNames lists the suite's application names in Table 2 order.
func WorkloadNames() []string {
	out := make([]string, len(workload.Names))
	copy(out, workload.Names)
	return out
}

// Characteristics summarizes a workload the way the paper's Table 2 and
// Figure 7 do.
type Characteristics struct {
	App           string
	Accesses      int64
	DistinctPages int64
	ReusePct      float64
	// Fractions of eviction-time Remaining Reuse Distances falling in
	// each tier's range.
	EvictTier1, EvictTier2, EvictTier3 float64
}

// WriteTrace serializes a trace in the line-oriented gmt-trace format
// ("R <page>" / "W <page>" lines under a "# gmt-trace v1" header).
func WriteTrace(w io.Writer, trace []Access) error {
	internal := make([]gpu.Access, len(trace))
	for i, a := range trace {
		internal[i] = gpu.Access{Page: tier.PageID(a.Page), Write: a.Write}
	}
	return workload.WriteTrace(w, internal)
}

// ReadTrace parses a trace written by WriteTrace.
func ReadTrace(r io.Reader) ([]Access, error) {
	internal, err := workload.ReadTrace(r)
	if err != nil {
		return nil, err
	}
	out := make([]Access, len(internal))
	for i, a := range internal {
		out[i] = Access{Page: int64(a.Page), Write: a.Write}
	}
	return out, nil
}

// Analyze computes workload characteristics against a scale.
func Analyze(w Workload, s Scale) Characteristics {
	tr := w.Trace()
	internalTrace := make([]gpu.Access, len(tr))
	for i, a := range tr {
		internalTrace[i] = gpu.Access{Page: tier.PageID(a.Page), Write: a.Write}
	}
	a := workload.Analyze(w.Name(), internalTrace, s.internal(), 64*1024, 0)
	c := Characteristics{
		App:           w.Name(),
		Accesses:      a.Accesses,
		DistinctPages: a.DistinctPages,
		ReusePct:      a.ReusePct(),
	}
	c.EvictTier1, c.EvictTier2, c.EvictTier3 = a.EvictFractions()
	return c
}
