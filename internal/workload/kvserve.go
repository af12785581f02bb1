package workload

import (
	"math/rand"
	"sort"
	"sync"

	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/tier"
)

// KVServeName is the KV-cache serving workload's suite name. It is not
// part of the paper's nine-application suite (Names); the serving-policy
// experiment requests it explicitly.
const KVServeName = "KVServe"

// KVStepKind is one step of a KV-serving request.
type KVStepKind uint8

const (
	KVPrefill  KVStepKind = iota // attend over the prefix, append the prompt
	KVDecode                     // one decode step
	KVFollowUp                   // a second turn reloading the whole context
)

// kvFollowUpPages is the KV footprint a follow-up turn appends.
const kvFollowUpPages = 2

// KVShape is the access shape of a KV-serving request. The single-node
// serving workload and the fleet's per-node streams both place and emit
// their requests through it.
type KVShape struct {
	// PrefixPages is the KV footprint of one shared prompt prefix,
	// read in full at prefill. StepsPerPage decode steps fill one new
	// KV block.
	PrefixPages  int
	StepsPerPage int

	// RecentWindow context pages are re-read every decode step; older
	// (offloaded) blocks and the full prefix are re-fetched only every
	// OffloadStride steps.
	RecentWindow  int
	OffloadStride int
}

// KVRequest places one request's KV pages: its shared prefix, the
// prompt KV appended at prefill and the blocks decode generates. A
// follow-up turn appends its blocks at End.
type KVRequest struct {
	Prefix      int // shared prefix index
	PromptStart int64
	PromptLen   int
	GenStart    int64
	GenLen      int
}

// Place lays a request out at page cursor: promptLen prompt pages, then
// the pages decodeSteps decode steps generate.
func (s KVShape) Place(prefix, promptLen, decodeSteps int, cursor int64) KVRequest {
	return KVRequest{
		Prefix:      prefix,
		PromptStart: cursor,
		PromptLen:   promptLen,
		GenStart:    cursor + int64(promptLen),
		GenLen:      decodeSteps / s.StepsPerPage,
	}
}

// End is the first page after the request's prompt and generated pages.
func (r KVRequest) End() int64 { return r.GenStart + int64(r.GenLen) }

// AppendStep appends step kind of request r (decode step k) to out and
// returns the extended slice. It allocates only when out must grow.
func (s KVShape) AppendStep(out []gpu.Access, r *KVRequest, kind KVStepKind, k int) []gpu.Access {
	prefixStart := int64(r.Prefix * s.PrefixPages)
	prefixPages := s.PrefixPages
	switch kind {
	case KVPrefill:
		// Attend over the shared prefix, append the prompt's KV.
		out = appendRun(out, prefixStart, prefixPages, false)
		out = appendRun(out, r.PromptStart, r.PromptLen, true)
	case KVDecode:
		filled := k / s.StepsPerPage
		ctx := r.PromptLen + filled
		full := k%s.OffloadStride == 0
		if !full {
			// Off-step: only the prefix head block stays resident-hot.
			prefixPages = 1
		}
		out = appendRun(out, prefixStart, prefixPages, false)
		// Context indices [lo, ctx): prompt pages first, then generated.
		lo := 0
		if !full && ctx > s.RecentWindow {
			lo = ctx - s.RecentWindow
		}
		out = appendRun(out, r.PromptStart+int64(lo), r.PromptLen-lo, false)
		gen := max(lo-r.PromptLen, 0)
		out = appendRun(out, r.GenStart+int64(gen), filled-gen, false)
		if (k+1)%s.StepsPerPage == 0 && filled < r.GenLen {
			out = append(out, gpu.Access{Page: tier.PageID(r.GenStart + int64(filled)), Write: true})
		}
	case KVFollowUp:
		// Second turn: reload the entire context rather than
		// recomputing it, then append the new turn's KV.
		out = appendRun(out, prefixStart, prefixPages, false)
		out = appendRun(out, r.PromptStart, r.PromptLen, false)
		out = appendRun(out, r.GenStart, r.GenLen, false)
		out = appendRun(out, r.End(), kvFollowUpPages, true)
	}
	return out
}

// appendRun appends n (<= 0: none) consecutive page accesses from first.
func appendRun(out []gpu.Access, first int64, n int, write bool) []gpu.Access {
	for p := int64(0); p < int64(n); p++ {
		out = append(out, gpu.Access{Page: tier.PageID(first + p), Write: write})
	}
	return out
}

// kvRequest is one planned conversation request, with its decode length,
// optional follow-up turn and arrival.
type kvRequest struct {
	KVRequest
	decodeSteps int     // decode iterations
	followUp    bool    // second turn after think time
	arrive      float64 // open-loop arrival instant, seconds
}

// kvStep is one timeline event; seq breaks same-instant ties so the
// interleaving is deterministic.
type kvStep struct {
	at   float64
	seq  int64
	req  int32
	kind KVStepKind
	k    int32 // decode step index (KVDecode only)
}

// KVServeWorkload generates a tiered LLM KV-cache serving trace: pages
// are KV blocks. Each request prefetches a shared prompt prefix
// (prefix reuse across requests), appends prompt KV during prefill,
// then decodes step by step — every step re-reads its recent context
// window while KV blocks below the recency threshold are offloaded and
// re-fetched only every OffloadStride steps. A fraction of requests
// returns after a think time and reloads the entire context (the
// reload-from-Tier-2-instead-of-recompute pattern GMT accelerates).
//
// Requests arrive open-loop: a seeded Poisson process whose rate
// follows a multi-period schedule (diurnal burst pattern), so load is
// independent of service progress. All randomness comes from one
// seeded generator; the trace is a pure function of (Scale, seed).
type KVServeWorkload struct {
	Scale Scale

	// KVShape is every request's access shape.
	KVShape

	// Prefixes counts the distinct shared prompt prefixes (system
	// prompts / few-shot preambles).
	Prefixes int

	// Prompt and decode shapes, drawn uniformly per request
	// (inclusive bounds).
	MinPromptPages, MaxPromptPages int
	MinDecodeSteps, MaxDecodeSteps int

	// Open-loop arrivals: BaseRate requests/second scaled by the
	// RateSchedule multiplier active at the arrival instant; each
	// schedule entry lasts PeriodSec.
	BaseRate     float64
	RateSchedule []float64
	PeriodSec    float64

	// PrefillSec is the prefill latency; StepSec the per-decode-step
	// latency. They position decode events on the arrival timeline.
	PrefillSec float64
	StepSec    float64

	// FollowUpProb of requests issue a second turn ThinkSec after
	// decode completes, reloading prefix + prompt + generated KV.
	FollowUpProb float64
	ThinkSec     float64

	seed int64

	once  sync.Once
	trace []gpu.Access
	pages int64
}

// NewKVServe builds the serving workload at the given scale, seeded
// from the scale's dataset seed. Knob defaults size the prefix pool to
// the hierarchy and pick a burst schedule whose peak concurrency
// overflows Tier-1 so placement policy matters.
func NewKVServe(s Scale) *KVServeWorkload {
	prefixPages := s.Tier1Pages / 32
	if prefixPages < 8 {
		prefixPages = 8
	}
	return &KVServeWorkload{
		Scale: s,
		KVShape: KVShape{
			PrefixPages:   prefixPages,
			StepsPerPage:  8,
			RecentWindow:  16,
			OffloadStride: 4,
		},
		Prefixes:       8,
		MinPromptPages: 4,
		MaxPromptPages: 16,
		MinDecodeSteps: 16,
		MaxDecodeSteps: 48,
		BaseRate:       float64(s.Tier1Pages) / 128,
		RateSchedule:   []float64{1, 4, 1, 0.25},
		PeriodSec:      30,
		PrefillSec:     0.2,
		StepSec:        0.05,
		FollowUpProb:   0.35,
		ThinkSec:       10,
		seed:           s.datasetSeed(),
	}
}

// Name implements Workload.
func (w *KVServeWorkload) Name() string { return KVServeName }

// Pages implements Workload.
func (w *KVServeWorkload) Pages() int64 { w.build(); return w.pages }

// Trace implements Workload. The trace is built once and cached;
// repeated calls return the same slice.
func (w *KVServeWorkload) Trace() []gpu.Access { w.build(); return w.trace }

// build plans the request mix and arrival timeline, then emits the
// interleaved access stream in (time, sequence) order.
func (w *KVServeWorkload) build() {
	w.once.Do(func() {
		rng := rand.New(rand.NewSource(w.seed))
		working := int64(w.Scale.WorkingSetPages())

		// Plan requests until the KV area (working set minus the
		// prefix pool) is exhausted. Every draw happens in a fixed
		// order, so the plan is a pure function of the seed.
		sched := RateSchedule{Base: w.BaseRate, Mult: w.RateSchedule, PeriodSec: w.PeriodSec}
		var reqs []kvRequest
		cursor := int64(w.Prefixes * w.PrefixPages)
		t := 0.0
		for {
			t = sched.Next(rng, t)
			prefix := rng.Intn(w.Prefixes)
			prompt := w.MinPromptPages + rng.Intn(w.MaxPromptPages-w.MinPromptPages+1)
			steps := w.MinDecodeSteps + rng.Intn(w.MaxDecodeSteps-w.MinDecodeSteps+1)
			r := kvRequest{
				KVRequest:   w.Place(prefix, prompt, steps, cursor),
				decodeSteps: steps,
				followUp:    rng.Float64() < w.FollowUpProb,
				arrive:      t,
			}
			end := r.End()
			if r.followUp {
				end += kvFollowUpPages
			}
			if end > working {
				break
			}
			cursor = end
			reqs = append(reqs, r)
		}

		// Lay every request's events on one timeline and sort by
		// (instant, sequence) — concurrent requests interleave exactly
		// as a serving engine would execute them.
		var steps []kvStep
		add := func(at float64, req int32, kind KVStepKind, k int32) {
			steps = append(steps, kvStep{at: at, seq: int64(len(steps)), req: req, kind: kind, k: k})
		}
		for i := range reqs {
			r := &reqs[i]
			add(r.arrive, int32(i), KVPrefill, 0)
			for k := 0; k < r.decodeSteps; k++ {
				add(r.arrive+w.PrefillSec+float64(k+1)*w.StepSec, int32(i), KVDecode, int32(k))
			}
			if r.followUp {
				end := r.arrive + w.PrefillSec + float64(r.decodeSteps)*w.StepSec
				add(end+w.ThinkSec, int32(i), KVFollowUp, 0)
			}
		}
		sort.Slice(steps, func(a, b int) bool {
			if steps[a].at != steps[b].at {
				return steps[a].at < steps[b].at
			}
			return steps[a].seq < steps[b].seq
		})

		var trace []gpu.Access
		for _, st := range steps {
			trace = w.AppendStep(trace, &reqs[st.req].KVRequest, st.kind, int(st.k))
		}
		w.trace = trace
		w.pages = cursor
	})
}
