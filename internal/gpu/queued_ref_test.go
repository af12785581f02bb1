package gpu_test

import (
	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/sim"
)

// queuedGPU is the reference warp model the differential test
// (TestGPUMatchesQueuedReference) holds gpu.GPU to. It schedules every
// warp step on the engine's timing wheel: one AfterCall(0) per warp at
// launch, every continuation an AfterCall(ComputePerAccess), and a warp
// retires only when a step finds the stream empty. The fast paths it
// shares with gpu.GPU — inline hit streaks, batched hit replay, the
// batched barrier release — are copied unchanged, since their own
// equivalence with the queued path is pinned elsewhere; what the
// reference leaves out is exactly what gpu.GPU adds on top: the
// constant-delay lane, the single launch event and early retirement.
type queuedGPU struct {
	eng      *sim.Engine
	cfg      gpu.Config
	stream   gpu.Stream
	mm       gpu.MemoryManager
	sync     gpu.SyncMemoryManager
	batch    gpu.BatchSyncMemoryManager
	bstream  gpu.BatchStream
	syncCall gpu.CallSyncMemoryManager

	accesses int64
	stall    sim.Time
	compute  sim.Time
	active   int
	finished bool
	warps    []queuedWarp

	barPending bool
	parked     []*queuedWarp
	releasing  []*queuedWarp
	batching   bool
	barriers   int64
}

type queuedWarp struct {
	g      *queuedGPU
	issued sim.Time
	done   func()
}

func queuedStepEvent(ctx any, _ int64) { ctx.(*queuedWarp).step() }

func queuedReleaseEvent(ctx any, _ int64) { ctx.(*queuedGPU).releaseParked() }

func queuedAccessDoneEvent(ctx any, _ int64) { ctx.(*queuedWarp).accessDone() }

func newQueuedGPU(eng *sim.Engine, cfg gpu.Config, stream gpu.Stream, mm gpu.MemoryManager) *queuedGPU {
	return &queuedGPU{eng: eng, cfg: cfg, stream: stream, mm: mm}
}

// Launch starts every warp with its own zero-delay event, in warp order;
// a relaunch re-arms a finished kernel the same way.
func (g *queuedGPU) Launch() {
	if g.warps == nil {
		g.sync, _ = g.mm.(gpu.SyncMemoryManager)
		if g.sync != nil {
			g.batch, _ = g.mm.(gpu.BatchSyncMemoryManager)
			g.bstream, _ = g.stream.(gpu.BatchStream)
			g.syncCall, _ = g.mm.(gpu.CallSyncMemoryManager)
		}
		g.warps = make([]queuedWarp, g.cfg.Warps)
		for i := range g.warps {
			w := &g.warps[i]
			w.g = g
			w.done = w.accessDone
		}
	} else {
		if !g.finished {
			panic("queuedGPU: Launch of an unfinished kernel")
		}
		g.finished = false
		g.barPending = false
		g.batching = false
		g.parked = g.parked[:0]
		g.releasing = g.releasing[:0]
	}
	for i := range g.warps {
		g.active++
		g.eng.AfterCall(0, queuedStepEvent, &g.warps[i], 0)
	}
}

func (w *queuedWarp) step() {
	g := w.g
	for {
		if g.barPending {
			g.parked = append(g.parked, w)
			g.checkBarrier()
			return
		}
		if g.batch != nil && g.bstream != nil && !g.batching &&
			g.cfg.ComputePerAccess > 0 && w.stepBatch() {
			return
		}
		a, ok := g.stream.Next()
		if !ok {
			g.active--
			if g.active == 0 {
				g.finished = true
			}
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
			if !g.syncCall.AccessSyncCall(a, queuedAccessDoneEvent, w, 0) {
				return
			}
		} else if !g.sync.AccessSync(a, w.done) {
			return
		}
		g.compute += g.cfg.ComputePerAccess
		next := g.eng.Now() + g.cfg.ComputePerAccess
		if !g.batching {
			if at, ok := g.eng.Peek(); !ok || at > next {
				g.eng.AdvanceTo(next)
				continue
			}
		}
		g.eng.AfterCall(g.cfg.ComputePerAccess, queuedStepEvent, w, 0)
		return
	}
}

func (w *queuedWarp) stepBatch() bool {
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
		b := int64(at-t0+cpa-1) / int64(cpa)
		if b < 1 {
			b = 1
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
		if j > 1 {
			g.eng.AdvanceTo(t0 + cpa*sim.Time(j-1))
		}
		g.eng.AfterCall(cpa, queuedStepEvent, w, 0)
		return true
	}
	g.eng.AdvanceTo(t0 + cpa*sim.Time(j))
	return false
}

func (w *queuedWarp) accessDone() {
	g := w.g
	g.stall += g.eng.Now() - w.issued
	g.compute += g.cfg.ComputePerAccess
	g.eng.AfterCall(g.cfg.ComputePerAccess, queuedStepEvent, w, 0)
}

func (g *queuedGPU) checkBarrier() {
	if !g.barPending || len(g.parked) < g.active {
		return
	}
	g.barriers++
	g.barPending = false
	g.parked, g.releasing = g.releasing[:0], g.parked
	g.eng.AfterCall(0, queuedReleaseEvent, g, 0)
}

func (g *queuedGPU) releaseParked() {
	rel := g.releasing
	for i, w := range rel {
		g.batching = i < len(rel)-1
		w.step()
	}
	g.batching = false
}

func (g *queuedGPU) Accesses() int64       { return g.accesses }
func (g *queuedGPU) StallTime() sim.Time   { return g.stall }
func (g *queuedGPU) ComputeTime() sim.Time { return g.compute }
func (g *queuedGPU) Done() bool            { return g.finished }
func (g *queuedGPU) Barriers() int64       { return g.barriers }
