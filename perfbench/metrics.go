package main

// metricSpec names one reported metric and its unit. BENCHMARK.json lists
// the same names and units; the self-test holds the two together.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, printed with
// --trace 0 on every workload. An operation is one census pass (census),
// one round of three simulations (accel) or one job (jobs-*).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the per-layer metrics, printed with --trace 1 on every
// workload; a layer a workload does not exercise reports 0.
var perLayer = []metricSpec{
	{"graph.gen_ms", "ms"},
	{"graph.orient_ms", "ms"},
	{"graph.save_ms", "ms"},
	{"graph.csr_bytes", "bytes"},
	{"graph.load_ms", "ms"},
	{"graph.open_mmap_ms", "ms"},
	{"graph.open_sharded_ms", "ms"},
	{"graph.hub_index_ms", "ms"},

	{"plan.compile_ms", "ms"},
	{"plan.compile_multi_ms", "ms"},
	{"plan.ops", "count"},
	{"plan.aux_specs", "count"},

	{"setops.intersect_ns_per_elem", "ns"},
	{"setops.difference_ns_per_elem", "ns"},
	{"setops.gallop_ns_per_probe", "ns"},
	{"setops.bitmap_ns_per_probe", "ns"},
	{"setops.merge_elems", "count"},
	{"setops.gallop_probes", "count"},
	{"setops.bitmap_probes", "count"},

	{"core.new_engine_ms", "ms"},
	{"core.mine_ms", "ms"},
	{"core.tasks", "count"},
	{"core.extensions", "count"},
	{"core.candidates", "count"},
	{"core.set_op_iterations", "count"},
	{"core.gallop_probes", "count"},
	{"core.bitmap_probes", "count"},
	{"core.frontier_reuses", "count"},
	{"core.leaf_count_skips", "count"},
	{"core.aux_built", "count"},
	{"core.aux_reused", "count"},
	{"core.aux_reuse_ratio", "ratio"},
	{"core.ns_per_extension", "ns"},

	{"sched.steals", "count"},
	{"sched.tasks_stolen", "count"},
	{"sched.tail_ms", "ms"},
	{"sched.worker_task_skew", "ratio"},

	{"sim.cycles", "cycles"},
	{"sim.tasks", "count"},
	{"sim.extensions", "count"},
	{"sim.utilization", "ratio"},
	{"sim.noc_requests", "count"},
	{"sim.dram_accesses", "count"},
	{"sim.l2_hit_rate", "ratio"},
	{"sim.cmap_hit_rate", "ratio"},
	{"sim.cmap_probes", "count"},
	{"sim.siu_iters", "count"},
	{"sim.sdu_iters", "count"},
	{"sim.breakdown.compute", "cycles"},
	{"sim.breakdown.cmap_probe", "cycles"},
	{"sim.breakdown.l1_stall", "cycles"},
	{"sim.breakdown.l2_stall", "cycles"},
	{"sim.breakdown.dram_stall", "cycles"},
	{"sim.breakdown.dispatch_wait", "cycles"},
	{"sim.breakdown.idle", "cycles"},
	{"sim.host_ns_per_cycle", "ns"},
	{"sim.host_ns_per_extension", "ns"},

	{"jobs.queue_wait_ms_p50", "ms"},
	{"jobs.queue_wait_ms_p95", "ms"},
	{"jobs.to_compiling_ms_p50", "ms"},
	{"jobs.compile_ms_p50", "ms"},
	{"jobs.run_ms_p50", "ms"},
	{"jobs.batches", "count"},
	{"jobs.batch_width_mean", "count"},
	{"jobs.batched_share", "ratio"},
	{"jobs.rejected", "count"},
	{"jobs.engine_busy_share", "ratio"},

	{"loadgen.late_ms_p95", "ms"},
	{"loadgen.late_ms_max", "ms"},

	{"trace.overhead_share", "ratio"},
	{"trace.bench_self_ms", "ms"},
	{"trace.graph_self_ms", "ms"},
	{"trace.plan_self_ms", "ms"},
	{"trace.setops_self_ms", "ms"},
	{"trace.core_self_ms", "ms"},
	{"trace.sim_self_ms", "ms"},
	{"trace.jobs_self_ms", "ms"},
	{"trace.loadgen_self_ms", "ms"},

	{"failed_share", "ratio"},
}
