package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"github.com/gmtsim/gmt"
	"github.com/gmtsim/gmt/internal/fleet"
	"github.com/gmtsim/gmt/internal/serve"
)

const (
	// gmtdRefRate is the reference offered load, about a third of the
	// 26-35 jobs/s a two-worker gmtd sustains on this mix.
	gmtdRefRate = 10.0
	// gmtdMinJobs keeps at least ten samples beyond the reference p95.
	gmtdMinJobs = 200
	// gmtdP95LimitMS is the latency limit gmtd.max_rps is judged by.
	gmtdP95LimitMS = 500
	// gmtdFleetNodes sizes the mix's fleet jobs.
	gmtdFleetNodes = 16
	// gmtdRungS is how long each rung above the reference rate runs.
	gmtdRungS = 6.0
)

// gmtdApps are the six non-graph apps. Graph apps are left out: every
// graph-app sim job rebuilds the Kronecker graph (~1.5 s), which would
// make the p95 flip between job classes.
var gmtdApps = []string{"LavaMD", "Pathfinder", "MultiVectorAdd", "Srad", "Backprop", "Hotspot"}

// gmtdPolicies are the paper's five systems.
var gmtdPolicies = []gmt.Policy{gmt.BaM, gmt.TierOrder, gmt.Random, gmt.Reuse, gmt.HMM}

// gmtdRungs are the multiples of the reference rate the capacity ladder
// climbs, in order, after the reference rate itself.
var gmtdRungs = []float64{2, 3, 4, 6}

// gmtdReq is one scheduled request of the open-loop load.
type gmtdReq struct {
	dueNS int64  // offset from the start of the phase
	body  []byte // POST /v1/jobs body
	first int    // index of the request this one repeats, or -1
	sim   *serve.SimRequest
	nodes int // fleet size for a fleet job
}

// gmtdSchedule builds n requests arriving over spanS seconds: a Poisson
// process conditioned on n arrivals in the span (the arrival instants are
// exponential gaps rescaled to the span), so every seed offers the same
// mean rate. The mix is fixed in proportion and seeded in order: 10%
// 16-node fleet jobs, 30% repeats of an earlier request (cache hits or
// joins onto an in-flight job), and sim jobs that cycle through the six
// apps x five policies in seeded order, each with its own runtime seed.
func gmtdSchedule(seed int64, n int, spanS float64) []gmtdReq {
	rng := rand.New(rand.NewSource(seed))
	gaps := make([]float64, n+1)
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}

	const (
		kindSim = iota
		kindFleet
		kindRepeat
	)
	kinds := make([]int, n)
	for i := range kinds {
		switch {
		case i < n/10:
			kinds[i] = kindFleet
		case i < n/10+3*n/10:
			kinds[i] = kindRepeat
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	// A repeat needs an earlier original: move the first original ahead.
	for i, k := range kinds {
		if k != kindRepeat {
			kinds[0], kinds[i] = kinds[i], kinds[0]
			break
		}
	}

	used := make(map[int64]bool)
	freshSeed := func() int64 {
		for {
			s := rng.Int63n(1<<40) + 1
			if !used[s] {
				used[s] = true
				return s
			}
		}
	}
	combos := len(gmtdApps) * len(gmtdPolicies)
	var order []int
	var originals []int
	reqs := make([]gmtdReq, n)
	at := 0.0
	for i := range reqs {
		at += gaps[i]
		r := gmtdReq{dueNS: int64(at / total * spanS * 1e9), first: -1}
		var sub serve.SubmitRequest
		switch kinds[i] {
		case kindRepeat:
			r.first = originals[rng.Intn(len(originals))]
			f := reqs[r.first]
			r.body, r.sim, r.nodes = f.body, f.sim, f.nodes
			reqs[i] = r
			continue
		case kindFleet:
			r.nodes = gmtdFleetNodes
			sub = serve.SubmitRequest{Kind: "fleet", Fleet: &serve.FleetRequest{Nodes: gmtdFleetNodes, Seed: freshSeed()}}
		default:
			if len(order) == 0 {
				order = rng.Perm(combos)
			}
			c := order[0]
			order = order[1:]
			r.sim = &serve.SimRequest{
				App:    gmtdApps[c/len(gmtdPolicies)],
				Config: &gmt.Config{Policy: gmtdPolicies[c%len(gmtdPolicies)], Seed: freshSeed()},
			}
			sub = serve.SubmitRequest{Kind: "sim", Sim: r.sim}
		}
		body, err := json.Marshal(sub)
		if err != nil {
			panic(err) // the request types always encode
		}
		r.body = body
		originals = append(originals, i)
		reqs[i] = r
	}
	return reqs
}

// gmtdOutcome is what happened to one request, on the run clock.
type gmtdOutcome struct {
	dueNS, sentNS, respNS int64
	code                  int
	cached                bool // answered from the cache or joined to an in-flight job
	view                  serve.JobStatus
	result                []byte
}

// doneNS is when the client had its answer: the job's finish, or the
// submit response for a job that had finished before it was asked for.
func (o gmtdOutcome) doneNS() int64 {
	if o.view.FinishedNS > o.respNS {
		return o.view.FinishedNS
	}
	return o.respNS
}

// latencyNS is the request's latency from when it was due, not when the
// generator got round to sending it, so generator lateness counts.
func (o gmtdOutcome) latencyNS() int64 { return o.doneNS() - o.dueNS }

// gmtdPhase is one open-loop run of a schedule against a fresh server.
type gmtdPhase struct {
	rate     float64
	out      []gmtdOutcome
	cost     passCost
	failed   int64
	rejects  int64
	digest   string
	backlogs [2]int // outstanding requests at half time and at the end
}

// rssWindowNS is the length of the windows gmtd's peak RSS is taken
// over: one schedule is a single pass, and the median of its windows'
// peaks is steadier than the peak of the whole. Each window starts by
// returning freed memory to the OS (one forced GC among the hundreds a
// window runs anyway), so a window's peak is its own, not what an
// earlier window left mapped.
const rssWindowNS = int64(5 * time.Second)

func call(h http.Handler, method, target string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// gmtdRun offers reqs to srv on the open-loop schedule from one generator
// goroutine calling the handler directly, waits for every job, then reads
// and checks every result. srv is drained before return. Requests at the
// reference rate are the run's operations: each one refused, failed or
// wrong counts against it. Above the reference rate a refusal is the
// answer the capacity ladder looks for, so only wrong results count.
func (b *bench) gmtdRun(srv *serve.Server, reqs []gmtdReq, rate float64) gmtdPhase {
	reference := rate == gmtdRefRate
	ph := gmtdPhase{rate: rate, out: make([]gmtdOutcome, len(reqs))}
	debug.FreeOSMemory()
	resetPeakRSS()
	origin := b.clock() + int64(20*time.Millisecond)
	u0 := readUsage()
	var rss []float64
	window := origin + rssWindowNS
	for i, r := range reqs {
		due := origin + r.dueNS
		if due > window {
			rss = append(rss, peakRSSMB())
			debug.FreeOSMemory()
			resetPeakRSS()
			window += rssWindowNS
		}
		if d := due - b.clock(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		o := gmtdOutcome{dueNS: due, sentNS: b.clock()}
		code, body := call(srv, "POST", "/v1/jobs", r.body)
		o.respNS, o.code = b.clock(), code
		if accepted(code) {
			if err := json.Unmarshal(body, &o.view); err != nil {
				o.code = 0
			}
			o.cached = o.view.Cached
		} else {
			ph.rejects++
		}
		ph.out[i] = o
	}
	// Wait for every admitted job. The server records each job's finish
	// on the shared clock, so polling late loses no precision.
	for i := range ph.out {
		o := &ph.out[i]
		for o.view.ID != "" && o.view.Status != serve.StatusDone && o.view.Status != serve.StatusFailed {
			time.Sleep(2 * time.Millisecond)
			code, body := call(srv, "GET", "/v1/jobs/"+o.view.ID, nil)
			if code != http.StatusOK || json.Unmarshal(body, &o.view) != nil {
				break
			}
		}
	}
	end := origin
	for _, o := range ph.out {
		if o.doneNS() > end {
			end = o.doneNS()
		}
	}
	first := origin
	if len(ph.out) > 0 {
		first = ph.out[0].dueNS
	}
	ph.cost = costBetween(end-first, u0, readUsage())
	ph.cost.rssMB = median(append(rss, peakRSSMB()))
	if len(reqs) > 0 {
		last := origin + reqs[len(reqs)-1].dueNS
		ph.backlogs = [2]int{outstanding(ph.out, (first+last)/2), outstanding(ph.out, last)}
	}

	h := sha256.New()
	for i := range ph.out {
		o := &ph.out[i]
		if o.view.ID != "" && o.view.Status == serve.StatusDone {
			code, body := call(srv, "GET", "/v1/jobs/"+o.view.ID+"/result", nil)
			if code == http.StatusOK {
				o.result = body
			}
		}
		msg := checkGmtdResult(reqs, ph.out, i)
		if msg == "" || (!reference && !accepted(o.code)) {
			continue
		}
		ph.failed++
		b.problem("gmtd request %d at %.0f req/s: %s", i, rate, msg)
	}
	for _, o := range ph.out {
		h.Write(o.result)
	}
	ph.digest = "sha256:" + hex.EncodeToString(h.Sum(nil))
	srv.Drain()
	if reference {
		b.ops(int64(len(reqs)), ph.failed)
	}
	return ph
}

// accepted reports whether a submit status admitted the request.
func accepted(code int) bool { return code == http.StatusOK || code == http.StatusAccepted }

// outstanding counts requests due by t whose answer came after t.
func outstanding(out []gmtdOutcome, t int64) int {
	n := 0
	for _, o := range out {
		if o.dueNS <= t && (o.view.ID == "" || o.doneNS() > t) {
			n++
		}
	}
	return n
}

// checkGmtdResult checks one request's outcome and result bytes, and
// returns what is wrong, or "".
func checkGmtdResult(reqs []gmtdReq, out []gmtdOutcome, i int) string {
	r, o := reqs[i], out[i]
	switch {
	case !accepted(o.code):
		return fmt.Sprintf("refused with status %d", o.code)
	case o.view.Status != serve.StatusDone:
		return fmt.Sprintf("job %s ended %s: %s", o.view.ID, o.view.Status, o.view.Error)
	case o.result == nil:
		return "no result"
	case r.first >= 0 && !bytes.Equal(o.result, out[r.first].result):
		return fmt.Sprintf("repeat of request %d returned different bytes", r.first)
	case r.sim != nil:
		var res gmt.Result
		if err := json.Unmarshal(o.result, &res); err != nil {
			return fmt.Sprintf("sim result does not parse: %v", err)
		}
		if !strings.EqualFold(res.App, r.sim.App) || res.Policy != r.sim.Config.Policy.String() {
			return fmt.Sprintf("asked for %s/%v, got %s/%s", r.sim.App, r.sim.Config.Policy, res.App, res.Policy)
		}
		if res.Accesses != res.Tier1Hits+res.InFlightJoins+res.Tier2Hits+res.SSDFills {
			return fmt.Sprintf("%d accesses != %d T1 + %d joins + %d T2 + %d SSD",
				res.Accesses, res.Tier1Hits, res.InFlightJoins, res.Tier2Hits, res.SSDFills)
		}
	default:
		var res fleet.Result
		if err := json.Unmarshal(o.result, &res); err != nil {
			return fmt.Sprintf("fleet result does not parse: %v", err)
		}
		sumNode, sumTpl := 0, 0
		for _, n := range res.PerNode {
			sumNode += n.Requests
		}
		for _, t := range res.Templates {
			sumTpl += t.Requests
		}
		if res.Nodes != r.nodes || len(res.PerNode) != r.nodes || sumNode != res.Fleet.Requests || sumTpl != res.Fleet.Requests ||
			res.Fleet.Requests != fleet.DefaultStream(r.nodes).Requests {
			return fmt.Sprintf("fleet of %d nodes: %d requests, %d per-node, %d per-template",
				res.Nodes, res.Fleet.Requests, sumNode, sumTpl)
		}
	}
	return ""
}

// latenciesMS is the latency of every request whose job completed.
func (ph gmtdPhase) latenciesMS() []float64 {
	var xs []float64
	for _, o := range ph.out {
		if o.view.Status == serve.StatusDone {
			xs = append(xs, float64(o.latencyNS())/1e6)
		}
	}
	return xs
}

// meets reports whether the phase met the limit gmtd.max_rps is judged
// by: p95 within the limit, nothing refused or failed, and a backlog
// that did not grow over the second half of the schedule.
func (ph gmtdPhase) meets() bool {
	return ph.rejects == 0 && ph.failed == 0 &&
		percentile(ph.latenciesMS(), 95) <= gmtdP95LimitMS &&
		ph.backlogs[1] <= ph.backlogs[0]+2*workers
}

func (ph gmtdPhase) print() {
	lat := ph.latenciesMS()
	q := quartiles(lat)
	fmt.Printf("rate %5.1f req/s: %d requests, p50 %.1f ms, p95 %.1f ms (n=%d, quartiles %.1f/%.1f/%.1f), rejects %d, failed %d, backlog %d->%d, wall %.3fs cpu %.3fs rss %.1f MiB\n",
		ph.rate, len(ph.out), percentile(lat, 50), percentile(lat, 95), len(lat), q[0], q[1], q[2],
		ph.rejects, ph.failed, ph.backlogs[0], ph.backlogs[1], ph.cost.wallS, ph.cost.cpuS, ph.cost.rssMB)
}

// gmtdServer starts a two-worker gmtd with the default queue. Its result
// cache holds every job of an n-request schedule (the default 256 when
// that is more), so every result can be read back and checked after the
// schedule ends.
func (b *bench) gmtdServer(n int) *serve.Server {
	return serve.New(serve.Options{Workers: workers, CacheEntries: max(256, n), Clock: b.clock})
}

// gmtdSetup builds the reference schedule and a server k times over —
// the client's input synthesis and the daemon's start-up — and returns
// the last pair with the mean time one set-up took. One set-up takes
// about half a millisecond, too little to time alone.
func (b *bench) gmtdSetup(k, n int, spanS float64) ([]gmtdReq, *serve.Server, float64) {
	var reqs []gmtdReq
	servers := make([]*serve.Server, 0, k)
	secs := b.timed("gmtd.setup", func() {
		for i := 0; i < k; i++ {
			reqs = gmtdSchedule(b.seed, n, spanS)
			servers = append(servers, b.gmtdServer(n))
		}
	})
	for _, s := range servers[:k-1] {
		s.Drain()
	}
	return reqs, servers[k-1], secs / float64(k)
}

// gmtdMix runs gmtd under open-loop Poisson load at the reference rate.
//
// Timed run: set up five batches of ten (the median batch mean is
// setup_s), then offer the reference schedule once: at least 200
// requests, rate x seconds if more.
// Traced run: the plain reference phase for latencies and serve
// accounting, the capacity ladder, a profiled reference phase, and the
// replay.
func (b *bench) gmtdMix() {
	n := int(gmtdRefRate * b.seconds)
	if n < gmtdMinJobs {
		n = gmtdMinJobs
	}
	spanS := float64(n) / gmtdRefRate
	fmt.Printf("gmtd workers=%d queue=default open-loop %.0f req/s x %d requests, schedule seed %d\n",
		workers, gmtdRefRate, n, b.seed)
	var setups []float64
	var reqs []gmtdReq
	var srv *serve.Server
	for i := 0; i < 5; i++ {
		if srv != nil {
			srv.Drain()
		}
		var secs float64
		reqs, srv, secs = b.gmtdSetup(10, n, spanS)
		setups = append(setups, secs)
	}
	ref := b.gmtdRun(srv, reqs, gmtdRefRate)
	ref.print()
	b.digest(ref.digest)
	if !b.traced {
		b.setEndToEnd([]passCost{ref.cost}, setups)
		return
	}

	b.setGC(ref.cost)
	lat := ref.latenciesMS()
	b.set("gmtd.p50_ms", percentile(lat, 50), "ms")
	b.set("gmtd.p95_ms", percentile(lat, 95), "ms")
	b.set("gmtd.samples", float64(len(lat)), "count")
	var late, submit, wait, service []float64
	cached := 0
	for _, o := range ref.out {
		late = append(late, float64(o.sentNS-o.dueNS)/1e6)
		submit = append(submit, float64(o.respNS-o.sentNS)/1e6)
		if o.cached {
			cached++
			continue
		}
		if o.view.StartedNS > 0 {
			wait = append(wait, float64(o.view.StartedNS-o.view.SubmittedNS)/1e6)
			service = append(service, float64(o.view.FinishedNS-o.view.StartedNS)/1e6)
		}
	}
	b.set("loadgen.late_p99_ms", percentile(late, 99), "ms")
	b.set("serve.submit_ms", median(submit), "ms")
	b.set("serve.queue_wait_ms", median(wait), "ms")
	b.set("serve.service_ms", median(service), "ms")
	b.set("serve.cache_hit_ratio", float64(cached)/float64(len(ref.out)), "ratio")
	b.set("serve.rejects", float64(ref.rejects), "count")

	maxRPS := 0.0
	if ref.meets() {
		maxRPS = gmtdRefRate
		for i, m := range gmtdRungs {
			rate := m * gmtdRefRate
			k := int(rate * gmtdRungS)
			rung := b.gmtdRun(b.gmtdServer(k), gmtdSchedule(b.seed+int64(i+1), k, gmtdRungS), rate)
			rung.print()
			if !rung.meets() {
				break
			}
			maxRPS = rate
		}
	}
	b.set("gmtd.max_rps", maxRPS, "req/s")

	file := filepath.Join(b.outDir, fmt.Sprintf("gmtd_mix-%d.pprof", b.seed))
	var traced gmtdPhase
	err := profiled(file, func() {
		reqs, srv, _ := b.gmtdSetup(1, n, spanS)
		traced = b.gmtdRun(srv, reqs, gmtdRefRate)
	})
	b.check(err == nil, "CPU profile: %v", err)
	traced.print()
	b.digest(traced.digest)
	b.overhead(ref.cost, traced.cost)
	b.replay()
	b.readShares(file)
}
