package main

// metricDef names one reported metric and its unit. The catalogue is the
// single list perfbench emits; BENCHMARK.json must list the same names and
// units (the smoke test checks that).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run (--trace 0): what a user of
// the Planner, the plan server or the Trainer waits for or gets back. The
// 90th- and 99th-percentile op times are printed in the summary but not
// gated: on serve-mixed the 90th sits in the tail of plan-cache hits, which
// follows the shared machine's scheduling, and the medians of two ten-seed
// sets of runs differed by 27%; the 99th spread by more than a quarter of
// its median within a set. Both are wider than the largest bound a gate
// may carry.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"plan_speedup_vs_heuristic", "x"},
	{"campaign_makespan_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run (--trace 1), named after the
// module whose public functions perfbench times or whose counters it reads.
var perLayer = []metricDef{
	{"search.setup_ms", "ms"},
	{"search.walk_ms", "ms"},
	{"search.setup_frac", "frac"},
	{"search.proposals_per_s", "1/s"},
	{"search.accept_frac", "frac"},
	{"search.cost_cache_hit_frac", "frac"},
	{"search.space_log10", "log10"},
	{"realhf.plan_overhead_ms", "ms"},
	{"realhf.plan_cache_hit_frac", "frac"},
	{"realhf.plan_hit_us", "us"},
	{"realhf.config_encode_us", "us"},
	{"realhf.config_decode_us", "us"},
	{"realhf.plan_marshal_us", "us"},
	{"realhf.step_plain_ms", "ms"},
	{"realhf.step_replan_ms", "ms"},
	{"realhf.replans", "count"},
	{"realhf.switches", "count"},
	{"realhf.replan_cached_frac", "frac"},
	{"realhf.alloc_kb_per_op", "kB"},
	{"estimator.full_eval_us", "us"},
	{"estimator.delta_eval_us", "us"},
	{"estimator.recost_frac", "frac"},
	{"estimator.gpu_idle_frac", "frac"},
	{"estimator.est_error_frac", "frac"},
	{"realloc.params_cost_us", "us"},
	{"realloc.plan_params_us", "us"},
	{"realloc.switch_cost_s", "s"},
	{"runtime.run_ms", "ms"},
	{"runtime.nodes_per_iter", "count"},
	{"runtime.us_per_node", "us"},
	{"runtime.comm_frac", "frac"},
	{"runtime.peak_mem_frac", "frac"},
	{"runtime.sends_per_step", "count"},
	{"runtime.send_us", "us"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.encode_us", "us"},
	{"checkpoint.bytes", "bytes"},
	{"serve.hit_rtt_ms", "ms"},
	{"serve.miss_rtt_ms", "ms"},
	{"serve.queue_high_water", "count"},
	{"serve.rejected_frac", "frac"},
	{"serve.coalesced", "count"},
	{"serve.gen_late_ms", "ms"},
	{"serve.response_bytes", "bytes"},
	{"trace.coverage_frac", "frac"},
	{"trace.overhead_ms", "ms"},
	{"trace.spans_per_op", "count"},
	{"trace.self_frac.realhf", "frac"},
	{"trace.self_frac.search", "frac"},
	{"trace.self_frac.runtime", "frac"},
	{"trace.self_frac.checkpoint", "frac"},
	{"trace.self_frac.serve", "frac"},
}

// tracedLayers are the modules perfbench opens spans for, in report order.
// estimator and realloc run only inside search, runtime and Trainer calls,
// so they have no spans of their own; their probes report them instead.
var tracedLayers = []string{"realhf", "search", "runtime", "checkpoint", "serve"}
