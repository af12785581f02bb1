// Package gpu models the SIMT execution of a GPU kernel at the
// granularity GMT operates on: coalesced per-warp accesses to 64 KiB
// pages. Warps issue accesses from a workload stream, perform a fixed
// amount of compute per access, and stall on demand misses until the
// memory manager (BaM, HMM, or GMT) delivers the page. Because many warps
// run concurrently, misses from different warps overlap — the access
// parallelism that GPU-orchestrated tiering exists to serve.
package gpu

import (
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/tier"
)

// WarpThreads is the SIMT width: the threads of a warp coalesce into one
// page access and can jointly drive zero-copy transfers.
const WarpThreads = 32

// Access is one coalesced page reference.
type Access struct {
	Page  tier.PageID
	Write bool
}

// BarrierPage is a sentinel: an Access with this page is a kernel-wide
// barrier (a kernel-launch boundary or grid sync). Every warp must
// arrive before any may continue — the synchronization structure of
// iterative kernels (stencil sweeps, BFS levels), which bounds how much
// miss latency can overlap across iterations.
const BarrierPage tier.PageID = -1

// Barrier is the barrier access value.
var Barrier = Access{Page: BarrierPage}

// IsBarrier reports whether a is a barrier token.
func (a Access) IsBarrier() bool { return a.Page == BarrierPage }

// Stream supplies a kernel's coalesced access sequence. Implementations
// are the workload generators; warps consume the stream in order, so the
// global access order (and therefore VTD/RRD semantics) is preserved
// while execution is spread across warps.
type Stream interface {
	// Next reports the next access; ok is false when the kernel is done.
	Next() (a Access, ok bool)
}

// SliceStream adapts a fixed trace to a Stream.
type SliceStream struct {
	Trace []Access
	pos   int
}

// Next implements Stream.
func (s *SliceStream) Next() (Access, bool) {
	if s.pos >= len(s.Trace) {
		return Access{}, false
	}
	a := s.Trace[s.pos]
	s.pos++
	return a, true
}

// Pending implements BatchStream: the unconsumed tail of the trace.
func (s *SliceStream) Pending() []Access { return s.Trace[s.pos:] }

// Advance implements BatchStream, consuming n accesses.
func (s *SliceStream) Advance(n int) { s.pos += n }

// Reset rewinds the stream onto a new trace, so one stream can feed a
// relaunched kernel.
func (s *SliceStream) Reset(trace []Access) {
	s.Trace = trace
	s.pos = 0
}

// BatchStream is the optional batch extension of Stream: a stream that
// can expose its unconsumed tail as a slice lets a hitting warp replay
// whole runs of accesses through AccessSyncBatch without a Next call
// (and an interface dispatch) per access.
type BatchStream interface {
	Stream
	// Pending reports all the not-yet-consumed accesses, so an empty
	// Pending means the stream is drained (the GPU retires warps on
	// it). The slice is only valid until the next Next or Advance call,
	// and callers must not mutate it.
	Pending() []Access
	// Advance consumes the first n pending accesses. n must not exceed
	// len(Pending()).
	Advance(n int)
}

// MemoryManager resolves coalesced accesses. done must be invoked exactly
// once, at the virtual time the data is available to the warp; it may be
// invoked synchronously for resident pages.
type MemoryManager interface {
	Access(a Access, done func())
}

// SyncMemoryManager is the optional fast-path extension of
// MemoryManager. AccessSync resolves a like Access, but reports inline
// completion instead of trampolining through done: a true return means
// the access completed synchronously at the current virtual time and
// done was neither retained nor called; false means the manager took
// the asynchronous path and will invoke done exactly once, later (or
// already has, synchronously — the classic contract). The GPU detects
// the interface at Launch and lets hitting warps consume consecutive
// accesses without touching the event queue (see HACKING.md,
// "Scheduler determinism contract").
type SyncMemoryManager interface {
	MemoryManager
	AccessSync(a Access, done func()) bool
}

// CallSyncMemoryManager is the typed-callback extension of
// SyncMemoryManager. AccessSyncCall resolves a like AccessSync, but the
// asynchronous completion is delivered by invoking call(ctx, arg) — a
// preallocated (sim.EventFunc, ctx) pair — instead of a func() closure.
// The GPU detects the interface at Launch and wakes stalled warps
// through a package-level event function with the *warp as ctx, so a
// miss allocates no completion closure anywhere on its path.
type CallSyncMemoryManager interface {
	SyncMemoryManager
	AccessSyncCall(a Access, call sim.EventFunc, ctx any, arg int64) bool
}

// BatchSyncMemoryManager is the batched extension of SyncMemoryManager.
// AccessSyncBatch consumes a leading run of accs that all complete
// synchronously at the current virtual time (Tier-1 hits), returning how
// many were consumed — at most max. It must stop at the first access it
// cannot complete inline (a miss, a barrier token, anything needing the
// asynchronous path), consume nothing it cannot account exactly as a
// sequence of AccessSync calls would, and must not schedule events,
// advance the clock, or otherwise touch the engine: the caller replays
// the consumed run's timing. A manager may return 0 at any time (the
// caller falls back to per-access AccessSync), so implementations are
// free to refuse configurations whose per-access side effects cannot be
// batched.
type BatchSyncMemoryManager interface {
	SyncMemoryManager
	AccessSyncBatch(accs []Access, max int) int
}

// Config sizes the execution model.
type Config struct {
	// Warps is the number of concurrently resident warps.
	Warps int
	// ComputePerAccess is the busy time a warp spends per coalesced
	// access once its data is resident.
	ComputePerAccess sim.Time
}

// DefaultConfig models a kernel keeping an A100-class GPU busy.
func DefaultConfig() Config {
	return Config{Warps: 256, ComputePerAccess: 200 * sim.Nanosecond}
}

// GPU drives a Stream through a MemoryManager on a simulation engine.
type GPU struct {
	eng    *sim.Engine
	cfg    Config
	stream Stream
	mm     MemoryManager
	// sync is non-nil when mm implements SyncMemoryManager; hitting
	// accesses then complete inline and warps stream through hit chains
	// without scheduling (the streak breaks whenever Peek shows another
	// event due in the compute window).
	sync SyncMemoryManager
	// batch/bstream are non-nil when the manager and stream additionally
	// support batched hit replay: a hitting warp then consumes whole
	// leading hit runs with one AccessSyncBatch call, bounded by the same
	// Peek window the scalar streak obeys one access at a time.
	batch   BatchSyncMemoryManager
	bstream BatchStream
	// syncCall is non-nil when mm additionally supports typed
	// completions; misses then wake warps through warpAccessDoneEvent and
	// no per-warp done closure is ever allocated.
	syncCall CallSyncMemoryManager

	accesses int64
	stall    sim.Time
	compute  sim.Time
	active   int
	finished bool
	// endAt is the latest time a retired warp's last step would have
	// run. A warp retires early — without that no-op step — when its
	// continuation could only find the stream drained, so the kernel's
	// end is an AtCall(endAt, kernelEndEvent) instead (see retire).
	endAt sim.Time

	// warps is allocated at the first Launch and reused by every
	// relaunch; warp pointers are stable and ride the engine's typed
	// event path, so the issue/complete cycle of a resident access
	// allocates nothing.
	warps []warp

	// Barrier state: once one warp consumes the barrier token from the
	// shared stream, barPending parks every other warp as it completes
	// its in-flight work, until all active warps have arrived. parked
	// records arrivals in order; one release event re-steps them in that
	// same order, preserving the stream-consumption sequence. A launch
	// is released the same way, with every warp in releasing. parked and
	// releasing ping-pong: checkBarrier hands the arrivals to the
	// release event by swapping the buffers, so re-parks during a
	// release land in the other buffer and neither ever reallocates.
	barPending bool
	parked     []*warp
	releasing  []*warp
	// batching is true while a barrier release batch still has warps to
	// re-step after the current one; it pins the inline fast path off so
	// a hitting warp cannot advance time past batch-mates that — under
	// the per-warp release events this batch replaces — would have been
	// pending in the queue and broken its streak.
	batching bool
	barriers int64
}

// warp is one resident warp's execution state. A warp has at most one
// access in flight, so a single issue timestamp suffices; done is the
// access-completion callback, allocated once at Launch rather than per
// access.
type warp struct {
	g      *GPU
	issued sim.Time
	done   func()
}

// warpStepEvent is the typed event dispatched for every warp
// continuation, one compute quantum after the warp's last issue; ctx is
// the *warp.
//
//gmt:hotpath
func warpStepEvent(ctx any, _ int64) { ctx.(*warp).step() }

// barrierReleaseEvent is the typed event dispatched once per completed
// barrier and once per launch; ctx is the *GPU.
//
//gmt:hotpath
func barrierReleaseEvent(ctx any, _ int64) { ctx.(*GPU).releaseParked() }

// kernelEndEvent marks the kernel finished at the time its last warp's
// elided final step would have run; ctx is the *GPU.
func kernelEndEvent(ctx any, _ int64) { ctx.(*GPU).finished = true }

// warpAccessDoneEvent is the typed completion delivered by a
// CallSyncMemoryManager when an asynchronous access lands; ctx is the
// stalled *warp.
//
//gmt:hotpath
func warpAccessDoneEvent(ctx any, _ int64) { ctx.(*warp).accessDone() }

// New returns an unlaunched GPU kernel execution.
func New(eng *sim.Engine, cfg Config, stream Stream, mm MemoryManager) *GPU {
	if cfg.Warps < 1 {
		panic("gpu: need at least one warp")
	}
	return &GPU{eng: eng, cfg: cfg, stream: stream, mm: mm}
}

// Launch schedules all warps at the current virtual time. Run the engine
// to completion afterwards; Done reports kernel completion.
//
// The warps start from one release event, as after a barrier, stepping
// in warp order: per-warp launch events would have held consecutive
// sequence numbers at one instant, so nothing could interleave between
// them. Each warp's continuation, one ComputePerAccess after an issue,
// rides the engine's constant-delay lane (sim.Engine.AfterCallFIFO). A
// continuation that could only retire the warp — the stream drained, no
// barrier pending — is not scheduled at all; the warp retires at once,
// and the kernel finishes at the time the latest such step would have
// run (see retire).
//
// Launch may be called again once Done is true, typically after
// resetting the stream onto the next kernel's trace (SliceStream.Reset):
// the relaunch reuses the warps and barrier buffers, so a GPU serving a
// sequence of kernels allocates only at its first launch. A relaunch
// dispatches exactly what a fresh New+Launch over the same stream,
// manager and engine state would; only the counters differ, because they
// accumulate across launches. Launching an unfinished kernel panics.
func (g *GPU) Launch() {
	if g.warps != nil {
		g.relaunch()
		return
	}
	g.sync, _ = g.mm.(SyncMemoryManager)
	if g.sync != nil {
		g.batch, _ = g.mm.(BatchSyncMemoryManager)
		g.bstream, _ = g.stream.(BatchStream)
		g.syncCall, _ = g.mm.(CallSyncMemoryManager)
	}
	g.warps = make([]warp, g.cfg.Warps)
	g.parked = make([]*warp, 0, g.cfg.Warps)
	g.releasing = make([]*warp, 0, g.cfg.Warps)
	for i := range g.warps {
		w := &g.warps[i]
		w.g = g
		if g.syncCall == nil {
			// Typed managers never touch done; skip the per-warp
			// method-value allocation entirely.
			w.done = w.accessDone
		}
	}
	g.start()
}

// start makes every warp active and schedules the launch's one release
// event, which steps them in warp order.
func (g *GPU) start() {
	g.endAt = 0
	for i := range g.warps {
		g.releasing = append(g.releasing, &g.warps[i])
	}
	g.active = len(g.warps)
	g.eng.AfterCall(0, barrierReleaseEvent, g, 0)
}

// relaunch re-arms a finished kernel: every warp becomes active again
// and steps at the current virtual time, in warp order, as at the first
// launch.
func (g *GPU) relaunch() {
	if !g.finished {
		panic("gpu: Launch of an unfinished kernel")
	}
	g.finished = false
	g.barPending = false
	g.batching = false
	g.parked = g.parked[:0]
	g.releasing = g.releasing[:0]
	g.start()
}

//gmt:hotpath
func (w *warp) step() {
	g := w.g
	for {
		if g.barPending {
			g.parked = append(g.parked, w)
			g.checkBarrier()
			return
		}
		// Batched hit replay: consume a whole leading hit run in one
		// manager call. batching pins this off like the scalar streak (a
		// barrier batch-mate's continuation would be pending); a zero
		// compute quantum has no window to batch into.
		if g.batch != nil && g.bstream != nil && !g.batching &&
			g.cfg.ComputePerAccess > 0 && w.stepBatch() {
			return
		}
		a, ok := g.stream.Next()
		if !ok {
			g.retire(g.eng.Now())
			g.checkBarrier()
			return
		}
		if a.IsBarrier() {
			g.barPending = true
			g.parked = append(g.parked, w)
			g.checkBarrier()
			return
		}
		g.accesses++
		w.issued = g.eng.Now()
		if g.sync == nil {
			g.mm.Access(a, w.done)
			return
		}
		if g.syncCall != nil {
			if !g.syncCall.AccessSyncCall(a, warpAccessDoneEvent, w, 0) {
				// Asynchronous path taken; warpAccessDoneEvent resumes
				// the warp with no closure in flight.
				return
			}
		} else if !g.sync.AccessSync(a, w.done) {
			// Asynchronous path taken; accessDone resumes the warp.
			return
		}
		// Inline completion: account the access exactly as accessDone
		// would (zero stall, one compute quantum), then keep streaming —
		// but only while the queued continuation this advance replaces
		// would have been the next dispatch. A pending event at or
		// before the end of the compute window breaks the streak (a tied
		// event was scheduled earlier, so its lower sequence number wins
		// the FIFO tie-break), as does a barrier release batch with
		// warps still to re-step behind this one.
		g.compute += g.cfg.ComputePerAccess
		next := g.eng.Now() + g.cfg.ComputePerAccess
		if !g.batching {
			if at, ok := g.eng.Peek(); !ok || at > next {
				g.eng.AdvanceTo(next)
				continue
			}
		}
		w.continueStep(g.drained())
		return
	}
}

// stepBatch replays a leading run of Tier-1 hits through the manager's
// batch path. It reports true when the step is finished (a continuation
// event was scheduled); false sends the caller to the scalar loop, with
// the clock already advanced past whatever the batch consumed.
//
// Equivalence with the scalar streak: under the queued rules a warp
// with a pending event at `at` consumes exactly B =
// max(1, ceil((at-now)/ComputePerAccess)) consecutive hits inline — the
// k-th hit's compute window ends at now+k*cpa, and the first window
// that reaches `at` breaks the streak (the tied event was scheduled
// earlier, so its lower sequence number wins the FIFO tie-break; the
// first access always issues because issuing itself is instantaneous).
// The batch consumes j = min(B, leading-hit-run) hits in one call:
// nothing dispatches in between — the batch schedules nothing and the
// clock never passes `at` — so no observer can distinguish the bulk
// update from j scalar iterations.
//
//gmt:hotpath
func (w *warp) stepBatch() bool {
	g := w.g
	pend := g.bstream.Pending()
	if len(pend) == 0 {
		return false
	}
	cpa := g.cfg.ComputePerAccess
	t0 := g.eng.Now()
	budget := len(pend)
	capped := false
	if at, ok := g.eng.Peek(); ok {
		// The next event is usually within one quantum (many warps
		// interleave), which needs no division.
		b := int64(1)
		if d := at - t0; d > cpa {
			b = int64(d+cpa-1) / int64(cpa)
		}
		if b <= int64(len(pend)) {
			budget, capped = int(b), true
		}
	}
	j := g.batch.AccessSyncBatch(pend, budget)
	if j == 0 {
		return false
	}
	g.bstream.Advance(j)
	g.accesses += int64(j)
	g.compute += cpa * sim.Time(j)
	if capped && j == budget {
		// The run filled the window up to the pending event: the last
		// hit issues at t0+(j-1)*cpa and its continuation queues behind
		// the event, exactly like the scalar streak break.
		if j > 1 {
			g.eng.AdvanceTo(t0 + cpa*sim.Time(j-1))
		}
		w.continueStep(j == len(pend))
		return true
	}
	// Streak broken by the access after the run (miss, barrier, or
	// stream end) before the window filled: advance through the consumed
	// hits and let the scalar path handle the breaker.
	g.eng.AdvanceTo(t0 + cpa*sim.Time(j))
	return false
}

// accessDone resumes the warp after its in-flight access lands.
//
//gmt:hotpath
func (w *warp) accessDone() {
	g := w.g
	g.stall += g.eng.Now() - w.issued
	g.compute += g.cfg.ComputePerAccess
	w.continueStep(g.drained())
}

// continueStep schedules the warp's next step one compute quantum from
// now, on the engine's lane for that delay. When the stream is drained
// and no barrier is pending, that step could only retire the warp:
// nothing can refill a drained stream or raise a barrier before the
// kernel ends, so the step would find the stream empty, and a retirement
// with no barrier pending touches no state another event can observe
// before the kernel's end. The warp then retires now instead, recording
// when the step would have run.
//
//gmt:hotpath
func (w *warp) continueStep(drained bool) {
	g := w.g
	if drained && !g.barPending {
		g.retire(g.eng.Now() + g.cfg.ComputePerAccess)
		return
	}
	g.eng.AfterCallFIFO(g.cfg.ComputePerAccess, warpStepEvent, w, 0)
}

// drained reports whether the stream is known to hold nothing more: only
// a BatchStream can show its drained tail without consuming it.
//
//gmt:hotpath
func (g *GPU) drained() bool {
	return g.bstream != nil && len(g.bstream.Pending()) == 0
}

// retire removes one warp from the kernel; end is when its final step
// runs or, for an early retirement, would have run. The kernel finishes
// when its last warp retires, at the latest such end: immediately when
// that is now, else through one kernelEndEvent at that time, so the
// engine's clock ends where the elided steps would have left it.
//
//gmt:hotpath
func (g *GPU) retire(end sim.Time) {
	g.active--
	if end > g.endAt {
		g.endAt = end
	}
	if g.active > 0 {
		return
	}
	if g.endAt > g.eng.Now() {
		g.eng.AtCall(g.endAt, kernelEndEvent, g, 0)
	} else {
		g.finished = true
	}
}

// checkBarrier releases parked warps once every still-active warp has
// arrived. Warps that drained the stream entirely do not count toward
// the rendezvous (a finished thread block never blocks a grid sync).
// The release is one scheduled event re-stepping the arrivals in order,
// not one queue entry per warp: the per-warp events always held
// consecutive sequence numbers at a single instant, so nothing could
// ever interleave between them and the batch dispatches identically.
//
//gmt:hotpath
func (g *GPU) checkBarrier() {
	if !g.barPending || len(g.parked) < g.active {
		return
	}
	g.barriers++
	g.barPending = false
	g.parked, g.releasing = g.releasing[:0], g.parked
	g.eng.AfterCall(0, barrierReleaseEvent, g, 0)
}

// releaseParked re-steps a completed barrier's arrivals in arrival
// order. batching marks every step but the last so hit streaks cannot
// advance time past batch-mates; the last warp sees the true queue
// state — its batch-mates' continuations are already scheduled — so the
// normal streak rule applies unchanged. A warp that parks again during
// the batch (a back-to-back barrier) lands in the other ping-pong
// buffer, and the rendezvous it completes is released by a fresh event.
//
//gmt:hotpath
func (g *GPU) releaseParked() {
	rel := g.releasing
	for i, w := range rel {
		g.batching = i < len(rel)-1
		w.step()
	}
	g.batching = false
}

// Accesses reports coalesced accesses issued so far, summed over every
// launch.
func (g *GPU) Accesses() int64 { return g.accesses }

// StallTime reports cumulative warp time spent waiting on memory,
// summed over every launch.
func (g *GPU) StallTime() sim.Time { return g.stall }

// ComputeTime reports cumulative warp busy time, summed over every
// launch.
func (g *GPU) ComputeTime() sim.Time { return g.compute }

// Done reports whether every warp has drained the stream of the latest
// launch.
func (g *GPU) Done() bool { return g.finished }

// Barriers reports how many kernel-wide barriers completed, summed over
// every launch.
func (g *GPU) Barriers() int64 { return g.barriers }

// ResidentManager is a trivial MemoryManager where every page is already
// resident: useful for tests and for measuring pure compute time.
type ResidentManager struct{}

// Access implements MemoryManager with zero latency.
func (ResidentManager) Access(_ Access, done func()) { done() }

// AccessSync implements SyncMemoryManager: every access completes inline.
func (ResidentManager) AccessSync(_ Access, _ func()) bool { return true }

var _ SyncMemoryManager = ResidentManager{}
