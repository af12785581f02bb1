package core

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/gmtsim/gmt/internal/invariant"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/tier"
)

// PolicyOracle: offline Belady-style management with perfect future
// knowledge, the upper bound GMT-Reuse approximates (§2.1.3: "one
// should replace the page whose next reference is furthest in the
// future"). The oracle
//
//   - evicts from Tier-1 the resident whose next use is furthest (dead
//     pages first),
//   - discards victims that are never used again,
//   - places returning victims in Tier-2, displacing the Tier-2
//     resident with the furthest next use when full — but only if the
//     incoming page returns sooner.
//
// Victim selection reads one lazy max-heap per tier (oracleHeap) keyed
// on next use, ties broken on the smaller page ID so runs stay
// deterministic. Every page entering a store gets an entry, and so does
// every change of a resident's next use; entries whose page left the
// store or whose key is no longer current are stale and are popped when
// they reach the top. furthestScan is the reference the heaps must
// agree with, victim for victim: the gmtinvariants build asserts it on
// every selection and FuzzOracleDifferential drives it against the heap
// over random traces and configs.

// oracleEvict selects and places a Tier-1 victim with future knowledge.
// The oracle is an offline upper bound, never on the perf-gated miss
// path, and heap maintenance may compact, so the whole policy sits
// behind a coldpath barrier.
//
//gmt:coldpath
func (rt *Runtime) oracleEvict(ready sim.EventFunc, rctx any) {
	victim, vps := rt.furthest(&rt.oracleT1, rt.t1)
	rt.t1.Remove(victim)
	rt.clearT1Page(victim)
	vps = rt.dir.own(victim)
	vps.loc = locSSD
	if vps.nextUse < 0 {
		// Dead page: free (or a writeback if dirty).
		rt.discard(victim, vps)
		ready(rctx, 0)
		return
	}
	if !rt.t2.Full() {
		rt.oracleNote(&rt.oracleT2, rt.t2, victim, vps.nextUse)
		rt.placeInTier2(victim, vps, ready, rctx)
		return
	}
	t2victim, t2ps := rt.furthest(&rt.oracleT2, rt.t2)
	if t2ps.nextUse >= 0 && t2ps.nextUse <= vps.nextUse {
		// Everything resident returns sooner: the incoming page is the
		// least valuable, keep Tier-2 intact.
		rt.discard(victim, vps)
		ready(rctx, 0)
		return
	}
	rt.t2.Remove(t2victim)
	rt.m.Tier2Evictions++
	rt.discard(t2victim, rt.dir.own(t2victim))
	rt.oracleNote(&rt.oracleT2, rt.t2, victim, vps.nextUse)
	rt.placeInTier2Delayed(victim, vps, rt.cfg.Tier2EvictOverhead, ready, rctx)
}

// initOracle prepares the oracle state for cfg: the next-occurrence
// table and both victim heaps, presized so no run grows them. Other
// policies get no table and empty heaps (storage a previous oracle run
// left behind is kept for the next one).
func (rt *Runtime) initOracle(cfg Config) {
	if cfg.Policy != PolicyOracle {
		rt.nextOcc = nil
		rt.oracleT1.reset(0)
		rt.oracleT2.reset(0)
		return
	}
	if len(cfg.Future) == 0 {
		panic("core: PolicyOracle requires Config.Future")
	}
	rt.nextOcc = nextOccurrences(cfg.Future)
	rt.oracleT1.reset(cfg.Tier1Pages)
	rt.oracleT2.reset(cfg.Tier2Pages)
}

// oracleKey orders pages for eviction: the next use, with dead pages
// (-1) furthest of all.
func oracleKey(nextUse int64) int64 {
	if nextUse < 0 {
		return 1 << 62 // never used again
	}
	return nextUse
}

// oracleEntry is one heap entry: a page and its key when pushed.
type oracleEntry struct {
	key  int64
	page tier.PageID
}

// compareOracle orders entries by eviction priority, negative when a
// goes first: larger key first, then the smaller page ID.
func compareOracle(a, b oracleEntry) int {
	if c := cmp.Compare(b.key, a.key); c != 0 {
		return c
	}
	return cmp.Compare(a.page, b.page)
}

// oracleHeapSlack is the compaction threshold as a multiple of the
// store's capacity.
const oracleHeapSlack = 2

// oracleHeap is a lazy max-heap of eviction candidates for one store.
// An entry is live while its page is resident and its key equals the
// page's current oracleKey; live entries cover every resident (the
// pushes in install, oracleEvict and the access path guarantee it), so
// the first live entry from the top is exactly the scan's answer. Stale
// entries are popped on the way down, and a push at oracleHeapSlack ×
// the store's capacity compacts the heap to its distinct live entries,
// at most the capacity, so the backing array presized by reset never
// grows.
type oracleHeap struct {
	e []oracleEntry
}

// reset empties h and presizes it for a store of the given capacity,
// keeping the backing array when it is large enough.
func (h *oracleHeap) reset(capacity int) {
	if n := oracleHeapSlack * capacity; cap(h.e) < n {
		h.e = make([]oracleEntry, 0, n)
	}
	h.e = h.e[:0]
}

// clone returns an independent copy of h with the same storage size.
func (h *oracleHeap) clone() oracleHeap {
	c := oracleHeap{e: make([]oracleEntry, len(h.e), cap(h.e))}
	copy(c.e, h.e)
	return c
}

func (h *oracleHeap) push(x oracleEntry) {
	h.e = append(h.e, x)
	i := len(h.e) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if compareOracle(h.e[i], h.e[parent]) >= 0 {
			break
		}
		h.e[i], h.e[parent] = h.e[parent], h.e[i]
		i = parent
	}
}

func (h *oracleHeap) pop() {
	last := len(h.e) - 1
	h.e[0] = h.e[last]
	h.e = h.e[:last]
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		top := i
		if left < last && compareOracle(h.e[left], h.e[top]) < 0 {
			top = left
		}
		if right < last && compareOracle(h.e[right], h.e[top]) < 0 {
			top = right
		}
		if top == i {
			return
		}
		h.e[i], h.e[top] = h.e[top], h.e[i]
		i = top
	}
}

// oracleLive reports whether e still describes a resident of store.
func (rt *Runtime) oracleLive(e oracleEntry, store tier.Store) bool {
	return store.Contains(e.page) && e.key == oracleKey(rt.dir.get(e.page).nextUse)
}

// oracleNote records that page p, resident in store (or about to be),
// now has the given next use. A push at the threshold first compacts h in
// place: live entries sorted in eviction order form a valid heap, and
// sorting puts duplicates — a page leaving and re-entering a store with
// an unchanged next use — side by side for removal.
//
//gmt:coldpath
func (rt *Runtime) oracleNote(h *oracleHeap, store tier.Store, p tier.PageID, nextUse int64) {
	if len(h.e) >= oracleHeapSlack*store.Capacity() {
		kept := h.e[:0]
		for _, e := range h.e {
			if rt.oracleLive(e, store) {
				kept = append(kept, e)
			}
		}
		slices.SortFunc(kept, compareOracle)
		h.e = slices.Compact(kept)
	}
	h.push(oracleEntry{key: oracleKey(nextUse), page: p})
}

// furthest reports the resident of store with the furthest next use
// (dead pages count as infinitely far), breaking ties on the smaller
// page ID. The winner stays on h: the Tier-2 keep-intact branch may not
// evict it, and once evicted its entry is stale and pops next time.
func (rt *Runtime) furthest(h *oracleHeap, store tier.Store) (tier.PageID, *pageState) {
	for len(h.e) > 0 {
		e := h.e[0]
		if rt.oracleLive(e, store) {
			if invariant.Enabled {
				ref := rt.furthestScan(store)
				invariant.Assert(e.page == ref,
					"core: oracle heap chose page %d, reference scan page %d", e.page, ref)
			}
			p := e.page
			if rt.oracleCheck != nil {
				p = rt.oracleCheck(store, p, rt.furthestScan(store))
			}
			return p, rt.dir.get(p)
		}
		h.pop()
	}
	panic(fmt.Sprintf("core: oracle heap has no live entry for a store of %d residents", store.Len()))
}

// furthestScan is the reference victim selection: a scan over every
// resident of store. It panics on an empty store.
func (rt *Runtime) furthestScan(store tier.Store) tier.PageID {
	best := tier.NoPage
	var bestKey int64
	store.Each(func(p tier.PageID) {
		key := oracleKey(rt.dir.get(p).nextUse)
		if best == tier.NoPage || key > bestKey || key == bestKey && p < best {
			best, bestKey = p, key
		}
	})
	if best == tier.NoPage {
		panic("core: oracle eviction from empty store")
	}
	return best
}
