// Command gmtperf is the repository's end-to-end benchmark. It drives the
// simulator's layers from outside, through their public entry points, on
// three workloads:
//
//	paper_sweep  gmtbench "all" at default scale on a fresh exp.Suite
//	fleet_1024   a 1024-node fleet over 98,304 requests
//	gmtd_mix     an in-process gmtd under open-loop Poisson load
//
// A run prints human-readable lines, then one JSON object as its last
// line: the end-to-end metrics with -trace 0, or the per-layer metrics
// (CPU profile shares, the benchmark's own spans, exact counts read from
// returned values) with -trace 1. Every run checks the simulated output
// it reads; a failed check makes "correct" false and the exit code 1.
// README.md explains the workloads, metrics and first recorded numbers.
//
// Usage, from the repository root:
//
//	bash cmd/gmtperf/run.sh --workload fleet_1024 --seed 42 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workers is the pool width every workload uses: the reference machine
// has two cores, and a fixed width keeps host times comparable.
const workers = 2

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line a run prints.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one run's settings, clock, spans, checks and metrics.
type bench struct {
	ctx     context.Context
	seed    int64
	seconds float64
	traced  bool
	outDir  string
	start   time.Time

	spans []span

	attempted, failed int64
	problems          []string
	digests           []string

	metrics map[string]metric
}

// span is a named interval the benchmark timed around a call it made.
type span struct {
	name       string
	start, end int64 // ns on the run clock
}

func newBench(seed int64, seconds float64, traced bool, outDir string) *bench {
	return &bench{
		ctx:     context.Background(),
		seed:    seed,
		seconds: seconds,
		traced:  traced,
		outDir:  outDir,
		start:   time.Now(),
		metrics: make(map[string]metric),
	}
}

// clock is the monotonic nanosecond clock injected into exp, fleet and
// serve, so their reported times share the benchmark's time base.
func (b *bench) clock() int64 { return int64(time.Since(b.start)) }

// timed runs fn inside a span and returns its duration in seconds.
func (b *bench) timed(name string, fn func()) float64 {
	s := span{name: name, start: b.clock()}
	fn()
	s.end = b.clock()
	b.spans = append(b.spans, s)
	return float64(s.end-s.start) / 1e9
}

// medianSpan is the median duration of the spans with the given name.
func (b *bench) medianSpan(name string) float64 {
	var xs []float64
	for _, s := range b.spans {
		if s.name == name {
			xs = append(xs, float64(s.end-s.start)/1e9)
		}
	}
	return median(xs)
}

// ops records n attempted operations of which bad failed a check.
func (b *bench) ops(n, bad int64) {
	b.attempted += n
	b.failed += bad
}

// problem records a failed check; the run reports correct=false.
func (b *bench) problem(format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	b.problems = append(b.problems, msg)
	fmt.Fprintln(os.Stderr, "gmtperf: check failed:", msg)
}

// check records a failed check unless ok holds, and reports ok.
func (b *bench) check(ok bool, format string, args ...interface{}) bool {
	if !ok {
		b.problem(format, args...)
	}
	return ok
}

// digest records the digest of one pass's simulated output. Every pass of
// a run simulates the same inputs, so all digests must agree.
func (b *bench) digest(d string) {
	if len(b.digests) > 0 && d != b.digests[0] {
		b.problem("simulated output digest %s differs from the first pass's %s", d, b.digests[0])
	}
	b.digests = append(b.digests, d)
}

func (b *bench) set(name string, value float64, unit string) {
	b.metrics[name] = metric{Value: value, Unit: unit}
}

// hostUsage is a snapshot of process resource counters.
type hostUsage struct {
	cpuNS      int64
	totalAlloc uint64
	numGC      uint32
	pauseNS    uint64
}

func readUsage() hostUsage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostUsage{
		cpuNS:      ru.Utime.Nano() + ru.Stime.Nano(),
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
		pauseNS:    ms.PauseTotalNs,
	}
}

// passCost is what one pass of a workload cost the host.
type passCost struct {
	wallS, cpuS, allocMB float64
	numGC                uint32
	pauseMS              float64
	rssMB                float64 // peak resident set during the pass
}

func costBetween(wallNS int64, a, b hostUsage) passCost {
	return passCost{
		wallS:   float64(wallNS) / 1e9,
		cpuS:    float64(b.cpuNS-a.cpuNS) / 1e9,
		allocMB: float64(b.totalAlloc-a.totalAlloc) / (1 << 20),
		numGC:   b.numGC - a.numGC,
		pauseMS: float64(b.pauseNS-a.pauseNS) / 1e6,
	}
}

// measure runs one pass and reports its host cost. It first returns
// freed memory to the OS, so every pass's peak resident set starts from
// the same clean heap instead of what earlier passes left mapped.
func (b *bench) measure(fn func()) passCost {
	debug.FreeOSMemory()
	resetPeakRSS()
	u0, t0 := readUsage(), b.clock()
	fn()
	t1 := b.clock()
	c := costBetween(t1-t0, u0, readUsage())
	c.rssMB = peakRSSMB()
	return c
}

// resetPeakRSS restarts the kernel's peak-RSS tracking (VmHWM) from the
// current resident set, so the next peakRSSMB is the peak of one pass
// rather than of the process's whole life. Kernels without the reset
// keep the lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, as documented above
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// setEndToEnd reports the end-to-end metrics from the timed passes and
// the set-up repetitions.
func (b *bench) setEndToEnd(passes []passCost, setups []float64) {
	var wall, cpu, alloc, rss []float64
	for i, p := range passes {
		fmt.Printf("pass %d: wall %.3fs cpu %.3fs alloc %.1f MiB, peak RSS %.1f MiB, %d GCs\n",
			i+1, p.wallS, p.cpuS, p.allocMB, p.rssMB, p.numGC)
		wall = append(wall, p.wallS)
		cpu = append(cpu, p.cpuS)
		alloc = append(alloc, p.allocMB)
		rss = append(rss, p.rssMB)
	}
	b.set("wall_s", median(wall), "s")
	b.set("cpu_s", median(cpu), "s")
	b.set("setup_s", median(setups), "s")
	b.set("alloc_mb", median(alloc), "MiB")
	b.set("peak_rss_mb", median(rss), "MiB")
	fmt.Printf("set-ups %d, median %.6fs (spread %.3f)\n", len(setups), median(setups), spread(setups))
}

// passCount is how many passes a run makes: the budget over a pass's
// nominal length, at least one. It depends on --seconds only, so a
// faster program does the same work in less time.
func (b *bench) passCount(nominalS float64) int {
	n := int(b.seconds / nominalS)
	if n < 1 {
		n = 1
	}
	return n
}

// setGC reports the collector's activity during one pass.
func (b *bench) setGC(p passCost) {
	b.set("gc.num", float64(p.numGC), "count")
	b.set("gc.pause_ms", p.pauseMS, "ms")
}

// overhead reports how much more host CPU the profiled pass took than
// the identical unprofiled one.
func (b *bench) overhead(plain, traced passCost) {
	pct := 0.0
	if plain.cpuS > 0 {
		pct = (traced.cpuS/plain.cpuS - 1) * 100
	}
	b.set("trace.overhead_pct", pct, "%")
}

var workloads = map[string]func(*bench){
	"paper_sweep": (*bench).paperSweep,
	"fleet_1024":  (*bench).fleet1024,
	"gmtd_mix":    (*bench).gmtdMix,
}

func main() {
	name := flag.String("workload", "", "workload to run: paper_sweep, fleet_1024 or gmtd_mix")
	seed := flag.Int64("seed", 42, "workload seed (the dataset seed for paper_sweep)")
	seconds := flag.Int("seconds", 30, "measurement budget per run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	outDir := flag.String("outdir", ".bench_build", "directory for CPU profiles")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "gmtperf: need -workload one of %v, -seconds >= 1, -trace 0|1\n", names)
		os.Exit(2)
	}
	b := newBench(*seed, float64(*seconds), *trace == 1, *outDir)
	fmt.Printf("gmtperf workload=%s seed=%d seconds=%d trace=%d workers=%d %s/%s\n",
		*name, *seed, *seconds, *trace, workers, runtime.GOOS, runtime.GOARCH)
	b.runRecovering(run)
	os.Exit(b.report())
}

// runRecovering runs a workload and turns a panic that reaches the
// benchmark's goroutine (the exp pool re-raises its jobs' panics there)
// into a failed operation, so the run still reports.
func (b *bench) runRecovering(run func(*bench)) {
	defer func() {
		if r := recover(); r != nil {
			b.ops(1, 1)
			b.problem("panic: %v", r)
		}
	}()
	run(b)
}

// report prints the metrics, the digest and the result line, and returns
// the exit code.
func (b *bench) report() int {
	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	metrics, bad := complete(b.metrics, defs)
	for _, n := range bad {
		b.problem("metric %s was measured in %s, not %s", n, b.metrics[n].Unit, metrics[n].Unit)
	}
	for _, d := range defs {
		fmt.Printf("%-32s %14.6g %s\n", d.name, metrics[d.name].Value, d.unit)
	}
	if len(b.digests) > 0 {
		fmt.Printf("digest %s (%d passes)\n", b.digests[0], len(b.digests))
	}
	errFrac := 0.0
	if b.attempted > 0 {
		errFrac = float64(b.failed) / float64(b.attempted)
	}
	fmt.Printf("errors_frac %.6g (%d failed of %d attempted)\n", errFrac, b.failed, b.attempted)
	out := output{
		Correct:   len(b.problems) == 0 && b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Failed = 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gmtperf:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
