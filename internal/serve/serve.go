// Package serve is the serving core of gmtd: a long-running HTTP/JSON
// front end over the deterministic simulation engine. It owns the
// pieces a one-shot CLI never needs — admission control over a bounded
// job queue, a content-addressed result cache with singleflight
// collapsing, Prometheus-text metrics, and graceful drain — while the
// simulations themselves run through the same internal/exp suite and
// public gmt API the CLIs use, so a served result is byte-identical to
// the CLI's output for the same request.
//
// Concurrency model (the "serving boundary", HACKING.md): goroutines
// here are HTTP handlers and the worker pool; everything below the
// exp.Suite memo stays single-goroutine per job. Wall-clock time enters
// only through the injected Options.Clock — the norealtime analyzer
// covers this package, and every latency in it is a delta of that
// monotonic clock, never time.Now.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"github.com/gmtsim/gmt/internal/exp"
)

// Options configures a Server. Zero values take the documented
// defaults.
type Options struct {
	// Workers is the number of concurrent job executors (default 2).
	Workers int
	// QueueDepth bounds the number of admitted-but-unstarted jobs;
	// submissions beyond it are rejected with 429 (default 64).
	QueueDepth int
	// JobParallelism is the exp pool worker count each experiment job
	// may use internally (default 1; the daemon's parallelism normally
	// comes from running several jobs, not from one wide job).
	JobParallelism int
	// CacheEntries bounds the completed jobs retained as the result
	// cache; the oldest finished jobs are evicted first (default 256).
	CacheEntries int
	// ColdStartLatency seeds the per-job latency estimate used for
	// Retry-After until the first job completes (default 2s). Without
	// it, a cold daemon with a full queue would tell every rejected
	// client to retry in 1 second — a synchronized stampede against a
	// queue that cannot possibly have drained.
	ColdStartLatency time.Duration
	// Clock is a monotonic nanosecond clock injected by the binary
	// (this package is banned from reading wall time). A nil clock
	// leaves all timings zero, which tests use.
	Clock func() int64
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.JobParallelism <= 0 {
		o.JobParallelism = 1
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 256
	}
	if o.ColdStartLatency <= 0 {
		o.ColdStartLatency = 2 * time.Second
	}
	if o.Clock == nil {
		o.Clock = func() int64 { return 0 }
	}
	return o
}

// Server is the serving state machine: an http.Handler plus the worker
// pool behind it. Create with New, shut down with Drain.
type Server struct {
	opts Options
	mux  *http.ServeMux
	wg   sync.WaitGroup

	// exec runs one admitted job; tests stub it to control timing.
	exec func(j *job) ([]byte, error)

	mu        sync.Mutex
	queue     chan *job
	jobs      map[string]*job // by id (ids are derived from keys)
	byKey     map[string]*job
	doneOrder []string // ids in completion order, for cache eviction
	suites    map[string]*exp.Suite
	draining  bool
	inflight  int
	met       metrics
}

// New builds a Server and starts its worker pool.
func New(opts Options) *Server {
	s := &Server{
		opts:   opts.withDefaults(),
		jobs:   make(map[string]*job),
		byKey:  make(map[string]*job),
		suites: make(map[string]*exp.Suite),
	}
	s.queue = make(chan *job, s.opts.QueueDepth)
	s.exec = func(j *job) ([]byte, error) { return j.run(j.ctx) }
	s.met.hist = newHistogram()
	s.met.coldNS = float64(s.opts.ColdStartLatency.Nanoseconds())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain gracefully shuts the worker pool down: admission stops
// (submissions are rejected with 503), every already-admitted job —
// queued or running — is executed to completion, and Drain returns once
// the pool is idle. Poll, result, health, and metrics endpoints keep
// answering; the binary shuts the HTTP listener down after Drain so
// clients can still fetch the results of drained jobs. Idempotent and
// safe to call concurrently.
func (s *Server) Drain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Draining reports whether Drain has been initiated.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// worker executes admitted jobs until the queue is closed and empty.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mu.Lock()
		j.status = StatusRunning
		j.startedNS = s.opts.Clock()
		s.inflight++
		s.mu.Unlock()

		payload, stack, err := s.execContained(j)

		s.mu.Lock()
		j.payload = payload
		j.finishedNS = s.opts.Clock()
		if err != nil {
			j.status = StatusFailed
			j.err = err.Error()
			j.stack = stack
			s.met.failed++
			if stack != "" {
				s.met.panics++
			}
		} else {
			j.status = StatusDone
			s.met.done++
		}
		s.inflight--
		s.met.observe(float64(j.finishedNS-j.startedNS) / 1e9)
		s.doneOrder = append(s.doneOrder, j.id)
		s.evictLocked()
		s.mu.Unlock()
		j.cancel()
	}
}

// execContained runs j through s.exec, turning a panic into an error
// plus the panicking goroutine's stack: the simulator panics on broken
// preconditions, and one bad job must fail alone rather than take the
// daemon down with it. stack is empty unless the job panicked.
func (s *Server) execContained(j *job) (payload []byte, stack string, err error) {
	defer func() {
		if v := recover(); v != nil {
			payload, stack, err = nil, string(debug.Stack()), fmt.Errorf("job panicked: %v", v)
		}
	}()
	payload, err = s.exec(j)
	return payload, "", err
}

// evictLocked enforces the CacheEntries bound on retained finished
// jobs. Called with s.mu held.
func (s *Server) evictLocked() {
	for len(s.doneOrder) > s.opts.CacheEntries {
		id := s.doneOrder[0]
		s.doneOrder = s.doneOrder[1:]
		if j, ok := s.jobs[id]; ok {
			delete(s.jobs, id)
			delete(s.byKey, j.key)
		}
	}
}

// suiteFor returns the shared experiment suite for one (scale, seed)
// pair, creating it on first use. Suites are never evicted: they hold
// the trace/result memo that makes warm experiment requests cheap, and
// their count is bounded by the distinct scales clients ask for.
func (s *Server) suiteFor(scale scaleSpec, seed int64) *exp.Suite {
	key := fmt.Sprintf("t1=%d,t2=%d,osf=%g,seed=%d,dseed=%d",
		scale.Tier1Pages, scale.Tier2Pages, scale.Oversubscription, seed, scale.DatasetSeed)
	s.mu.Lock()
	defer s.mu.Unlock()
	suite, ok := s.suites[key]
	if !ok {
		suite = exp.NewSuite(scale.workload())
		suite.Seed = seed
		s.suites[key] = suite
	}
	return suite
}

// simulationsTotal sums executed simulations across every suite plus
// the standalone sim-kind runs. Warm (cached) requests leave it
// unchanged — the metric the cache tests pin.
func (s *Server) simulationsTotal() int64 {
	s.mu.Lock()
	suites := make([]*exp.Suite, 0, len(s.suites))
	for _, suite := range s.suites {
		suites = append(suites, suite) //lint:ignore maporder summed below; int64 addition is order-independent
	}
	total := s.met.simRuns
	s.mu.Unlock()
	// Suite counters are summed outside s.mu (Counters takes the suite
	// lock); int64 addition is order-independent, so map order above is
	// harmless.
	for _, suite := range suites {
		sims, _ := suite.Counters()
		total += sims
	}
	return total
}

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Encode errors are unreportable here: the status line is committed.
	_ = enc.Encode(v)
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}
