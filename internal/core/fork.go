package core

import (
	"fmt"
	"math/rand"
	"reflect"

	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/pcie"
	"github.com/gmtsim/gmt/internal/reuse"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/stats"
	"github.com/gmtsim/gmt/internal/tier"
	"github.com/gmtsim/gmt/internal/xfer"
)

// PrefixConfig maps cfg to the canonical representative of its
// prefix-equivalence class: two configs produce byte-identical
// simulations of any eviction-free prefix iff their PrefixConfigs are
// equal. The normalized fields are exactly those the runtime consults
// only on the eviction/placement path (Tier-2 sizing and policy, the
// eviction-cost knobs, the backfill heuristic, the class predictor) or
// never before the first replacement decision (Seed: the RNG's first
// draw is a replacement coin). PolicyRandom maps to PolicyTierOrder —
// they differ only in placement — while PolicyReuse stays distinct
// because its sampler observes every access from the first one.
//
// Sweep drivers key shared warm-up parents by PrefixConfig, then Fork
// each sweep point's real config off one canonical parent.
// PolicyOracle configs are their own class (the future stream shapes
// victim choice from the start conceptually; normalizing it buys
// nothing since oracle runs are never phased).
func PrefixConfig(cfg Config) Config {
	if cfg.Policy == PolicyOracle {
		return cfg
	}
	c := cfg
	if c.Policy == PolicyRandom {
		c.Policy = PolicyTierOrder
	}
	c.Seed = 0
	if c.Policy == PolicyBaM {
		c.Tier2Pages = 0
	} else {
		c.Tier2Pages = 1
	}
	c.Tier2Policy = ""
	c.TrackTier2Reuse = false
	c.Tier2EvictOverhead = 0
	c.AsyncEviction = false
	c.BackfillThreshold = 0
	c.BackfillWindow = 0
	c.MaxClockRetries = 0
	c.Predictor = 0
	c.Future = nil
	return c
}

// samePrefixClass reports whether a and b simulate eviction-free
// prefixes byte-identically. DeepEqual (not ==) because Config carries
// a slice and a pointer; this runs once per fork, never per access.
func samePrefixClass(a, b Config) bool {
	return reflect.DeepEqual(PrefixConfig(a), PrefixConfig(b))
}

// Fork returns a child runtime that continues this runtime's state on a
// fresh engine under cfg, sharing page metadata copy-on-write. Sweep
// drivers use it to simulate a common warm-up prefix once and branch per
// sweep point: the caller runs the parent to quiescence, captures
// eng.Snapshot(), and builds each child on sim.NewEngineFrom of that
// snapshot.
//
// cfg may differ from the parent's config in any field PrefixConfig
// normalizes (Tier-2 sizing and replacement policy, eviction-cost knobs,
// seed, predictor, the Random/TierOrder placement split): a parent run
// under the canonical PrefixConfig serves every config in its class.
// Fork panics when the two configs are not prefix-equivalent.
//
// Forking is only defined at an eviction-free quiescent point (see
// EvictionFreePrefix): no event pending, no fetch in flight, nothing
// resident in Tier-2, no replacement decision — and hence no RNG draw —
// made yet. Under those conditions a child behaves byte-identically to
// a runtime that simulated the whole trace monolithically under cfg:
//
//   - Tier-1 (clock bits, slot assignment, free-list order) is deep
//     copied; Tier-2 is rebuilt from cfg, empty — exactly what a
//     monolithic run would hold here.
//   - The page directory is shared copy-on-write at pageChunkSize
//     granularity; the parent is frozen and must never run again.
//   - Devices (drive, host link, transfer engine) are rebuilt fresh on
//     the child engine — legal because quiescence means they hold no
//     state beyond cumulative counters, which Snapshot folds back in
//     via statsBase.
//   - The reuse sampler and Markov chain are deep copied mid-stream; the
//     classifier, backfill window, and RNG are rebuilt from cfg. The
//     re-seeded RNG reproduces a monolithic run's stream exactly because
//     no draw happens before the first eviction.
//
// It panics when any precondition fails rather than risk a silent
// divergence.
func (rt *Runtime) Fork(eng *sim.Engine, cfg Config) *Runtime {
	if rt.reserved != 0 || rt.slotQueued() != 0 || rt.mover.Outstanding() != 0 {
		panic(fmt.Sprintf("core: Fork with %d reserved slots, %d slot waiters, %d moves in flight",
			rt.reserved, rt.slotQueued(), rt.mover.Outstanding()))
	}
	if rt.t2 != nil && rt.t2.Len() != 0 {
		panic(fmt.Sprintf("core: Fork with %d Tier-2 residents (prefix was not eviction-free)", rt.t2.Len()))
	}
	if ev := rt.m.EvictionsToTier2 + rt.m.EvictionsToSSD + rt.m.EvictionsDropped; ev != 0 {
		panic(fmt.Sprintf("core: Fork after %d evictions (prefix was not eviction-free)", ev))
	}
	if rt.cfg.RNG != nil || cfg.RNG != nil {
		panic("core: Fork with a caller-supplied RNG (stream position cannot be reproduced)")
	}
	if rt.cfg.PrefetchDegree != 0 || cfg.PrefetchDegree != 0 {
		panic("core: Fork with prefetching (in-flight speculative fills cannot be shared)")
	}
	if !samePrefixClass(rt.cfg, cfg) {
		panic(fmt.Sprintf("core: Fork config not prefix-equivalent to the parent's:\nparent: %+v\nchild:  %+v",
			PrefixConfig(rt.cfg), PrefixConfig(cfg)))
	}
	rt.frozen = true
	rt.batchOK = false

	child := &Runtime{
		eng:      eng,
		cfg:      cfg,
		ssd:      newStorage(eng, cfg),
		hostLink: pcie.NewLink(eng, cfg.HostLanes),
		t1:       rt.t1.Clone(),
		t2:       newTier2(cfg),

		t1page: append([]int32(nil), rt.t1page...),
		dir:    rt.dir.fork(),

		vtd:    rt.vtd,
		markov: rt.markov,
		classifier: reuse.Classifier{
			Tier1Pages: int64(cfg.Tier1Pages),
			Tier2Pages: int64(cfg.Tier2Pages),
		},
		rng: rand.New(rand.NewSource(cfg.Seed)),

		historySample: int64(cfg.HistorySample),
		nextOcc:       rt.nextOcc, // read-only, safely shared

		recentPos: rt.recentPos,
		recentN:   rt.recentN,

		m: rt.m,
	}
	child.m.Policy = cfg.Policy.String()
	child.mover = xfer.NewEngine(eng, child.hostLink, cfg.Transfer)
	if child.nextOcc != nil {
		// The Tier-1 victim heap continues the cloned clock's residents;
		// Tier-2 starts empty, as the store does.
		child.oracleT1 = rt.oracleT1.clone()
		child.oracleT2.reset(cfg.Tier2Pages)
	}
	if cfg.Policy == PolicyReuse {
		// samePrefixClass guarantees the parent is Reuse too, so its
		// sampler carries exactly the observations a monolithic run
		// would have made; the backfill ring is rebuilt from cfg (it is
		// untouched during an eviction-free prefix: recentN == 0).
		child.sampler = rt.sampler.Clone()
		w := cfg.BackfillWindow
		if w < 1 {
			w = 1
		}
		child.recentLong = make([]bool, w)
	}
	if len(rt.history) > 0 {
		child.history = append([]stats.Run(nil), rt.history...)
	}
	if len(rt.reuseNS) > 0 {
		child.reuseNS = append([]int64(nil), rt.reuseNS...)
	}
	ds := rt.ssd.Stats()
	child.statsBase = rt.statsBase
	child.statsBase.Reads += ds.Reads
	child.statsBase.Writes += ds.Writes
	child.statsBase.ReadBytes += ds.ReadBytes
	child.statsBase.WriteBytes += ds.WriteBytes
	child.hotAux = child.historySample > 0 || child.sampler != nil
	child.batchOK = child.historySample == 0 && cfg.PrefetchDegree == 0 && child.nextOcc == nil
	return child
}

// EvictionFreePrefix reports the longest K such that simulating
// trace[:K] cannot trigger a Tier-1 eviction: the distinct non-negative
// pages referenced stay within tier1 slots, so every miss finds a free
// slot and Tier-2 is never touched. trace[:K] is therefore a valid Fork
// warm-up prefix for any policy sharing the same tier1 capacity (the
// replacement policy, the placement coin, and Tier-2 sizing are all
// unexercised by it).
func EvictionFreePrefix(trace []gpu.Access, tier1 int) int {
	if tier1 <= 0 {
		return 0
	}
	seen := make(map[tier.PageID]struct{}, tier1)
	for i, a := range trace {
		if a.Page < 0 {
			continue
		}
		if _, ok := seen[a.Page]; ok {
			continue
		}
		if len(seen) == tier1 {
			return i
		}
		seen[a.Page] = struct{}{}
	}
	return len(trace)
}
