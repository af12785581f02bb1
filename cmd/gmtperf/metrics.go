package main

// endToEnd lists the metrics a run with -trace 0 reports, on every
// workload. BENCHMARK.json declares the same names and units.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MiB"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the metrics a run with -trace 1 reports, on every
// workload. A layer the workload bypasses reports 0: that is the
// "bypassed on" column of README.md's prediction table, measured.
// BENCHMARK.json declares the same names and units.
var perLayer = []metricDef{
	// Flat CPU-profile shares of the workload's profiled pass, by layer.
	{"sim.cpu_share", "%"},
	{"gpu.cpu_share", "%"},
	{"core.cpu_share", "%"},
	{"core.oracle.cpu_share", "%"},
	{"tier.cpu_share", "%"},
	{"nvme.cpu_share", "%"},
	{"pcie.cpu_share", "%"},
	{"xfer.cpu_share", "%"},
	{"reuse.cpu_share", "%"},
	{"baseline.cpu_share", "%"},
	{"workload.cpu_share", "%"},
	{"graph.cpu_share", "%"},
	{"exp.cpu_share", "%"},
	{"fleet.cpu_share", "%"},
	{"stats.cpu_share", "%"},
	{"serve.cpu_share", "%"},
	{"gc.cpu_share", "%"},
	{"other.cpu_share", "%"},
	{"trace.samples", "count"},
	{"trace.overhead_pct", "%"},

	// The replay: nine apps x {BaM, Reuse, Oracle} through sim, gpu and
	// core, built by the benchmark, with counts read from the engine,
	// the runtime and its devices.
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"gpu.mm_calls", "count"},
	{"gpu.batch_pages_per_call", "pages/call"},
	{"core.accesses", "count"},
	{"core.t1_hit_ratio", "ratio"},
	{"core.ns_per_access", "ns"},
	{"tier.t2_lookups", "count"},
	{"tier.t2_useful_ratio", "ratio"},
	{"tier.t2_evictions", "count"},
	{"nvme.commands", "count"},
	{"nvme.mean_latency_us", "sim_us"},
	{"pcie.bytes", "bytes"},
	{"pcie.busy_frac", "ratio"},
	{"xfer.zc_ratio", "ratio"},
	{"reuse.predictions", "count"},
	{"reuse.accuracy", "ratio"},
	{"graph.kron_s", "s"},
	{"workload.trace_gen_s", "s"},

	// paper_sweep.
	{"exp.paper_err_pct", "%"},
	{"exp.err.fig8_reuse", "%"},
	{"exp.err.fig8_random", "%"},
	{"exp.err.fig8_tierorder", "%"},
	{"exp.err.fig11_reuse", "%"},
	{"exp.err.fig11_random", "%"},
	{"exp.err.fig11_tierorder", "%"},
	{"exp.err.fig13_reuse", "%"},
	{"exp.err.fig14_reuse_vs_hmm", "%"},
	{"exp.err.fig14_reuse_vs_opt_hmm", "%"},
	{"exp.plan_s", "s"},
	{"exp.phase_s.traces", "s"},
	{"exp.phase_s.prefixes", "s"},
	{"exp.phase_s.simulate", "s"},
	{"exp.phase_s.dependent", "s"},
	{"exp.render_s", "s"},
	{"exp.pool_util", "ratio"},
	{"exp.worker_skew", "ratio"},
	{"exp.memo_hit_ratio", "ratio"},
	{"exp.sims", "count"},
	{"baseline.hmm_runs", "count"},

	// fleet_1024.
	{"fleet.stream_s", "s"},
	{"fleet.route_s", "s"},
	{"fleet.serial_s", "s"},
	{"fleet.node_req_imbalance", "ratio"},

	// gmtd_mix.
	{"gmtd.p50_ms", "ms"},
	{"gmtd.p95_ms", "ms"},
	{"gmtd.samples", "count"},
	{"gmtd.max_rps", "req/s"},
	{"loadgen.late_p99_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.service_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.rejects", "count"},

	// The Go runtime, during the workload's unprofiled pass.
	{"gc.num", "count"},
	{"gc.pause_ms", "ms"},
}

type metricDef struct {
	name, unit string
}

// complete fills every declared metric the run did not measure with 0,
// drops anything not declared for the run's mode, and reports names set
// with a unit other than the declared one.
func complete(set map[string]metric, defs []metricDef) (map[string]metric, []string) {
	out := make(map[string]metric, len(defs))
	var bad []string
	for _, d := range defs {
		m, ok := set[d.name]
		if ok && m.Unit != d.unit {
			bad = append(bad, d.name)
		}
		out[d.name] = metric{Value: m.Value, Unit: d.unit}
	}
	return out, bad
}
