package main

// metricDef names one reported metric. e2e metrics are printed by
// untraced runs and carry a regression bound in BENCHMARK.json; the
// rest are per-layer metrics printed by traced runs. A metric a
// workload cannot measure is reported as 0 there (per-layer only; every
// end-to-end metric applies to every workload, see README.md).
//
// The wall-clock and CPU-time metrics are per-layer: on the 2-vCPU VM
// the benchmark was built on, the same deterministic run took 15-40%
// longer from one minute to the next, so no timing repeats within the
// largest bound the benchmark may set.
type metricDef struct {
	name string
	unit string
	e2e  bool
}

// queryClasses lists every query class of every workload, in the order
// the per-class latency metrics are reported.
var queryClasses = []string{"oid", "av", "join", "topk", "groupby", "rangejoin", "scanjoin"}

// spanNames lists every span the traced run records; each reports its
// mean self time.
var spanNames = []string{
	"op", "vql.parse", "physical.compile", "optimizer.optimize",
	"core.query", "core.insert", "physical.exec", "physical.cursor", "pgrid.lookup",
	"microbench", "store.put", "store.lookup", "store.scan",
	"triple.index_key", "agg.add", "wal.append", "wal.sync",
}

var catalogue = func() []metricDef {
	ms := []metricDef{
		{"setup_s", "s", true},
		{"msgs_per_op", "count", true},
		{"sim_query_ms", "ms", true},
		{"live_heap_mb", "MB", true},
		{"query_p50_ms", "ms", false},
		{"query_p99_ms", "ms", false},
		{"queries_per_s", "1/s", false},
		{"insert_p50_ms", "ms", false},
		{"insert_p99_ms", "ms", false},
		{"inserts_per_s", "1/s", false},
		{"cpu_ms_per_op", "ms", false},
	}
	for _, c := range queryClasses {
		ms = append(ms, metricDef{"core.query_p50_ms." + c, "ms", false})
	}
	ms = append(ms,
		metricDef{"core.allocs_per_op", "count", false},
		metricDef{"core.alloc_kb_per_op", "KB", false},
		metricDef{"core.gc_cpu_fraction", "ratio", false},
		metricDef{"vql.parse_us", "us", false},
		metricDef{"physical.compile_us", "us", false},
		metricDef{"physical.exec_ms", "ms", false},
		metricDef{"physical.ttfr_ms", "ms", false},
		metricDef{"physical.ops_per_query", "count", false},
		metricDef{"physical.rows_per_query", "count", false},
		metricDef{"optimizer.optimize_us", "us", false},
		metricDef{"optimizer.est_msgs_ratio", "ratio", false},
		metricDef{"pgrid.hops_per_query", "count", false},
		metricDef{"pgrid.route_cache_hit_ratio", "ratio", false},
		metricDef{"pgrid.forwarded_per_op", "count", false},
		metricDef{"pgrid.pages_per_query", "count", false},
		metricDef{"pgrid.probe_retry_ratio", "ratio", false},
		metricDef{"pgrid.flow_stall_ratio", "ratio", false},
		metricDef{"pgrid.write_retries", "count", false},
		metricDef{"pgrid.lookup_us", "us", false},
		metricDef{"simnet.modeled_bytes_per_op", "B", false},
		metricDef{"simnet.ns_per_msg", "ns", false},
		metricDef{"netx.frames_per_op", "count", false},
		metricDef{"netx.bytes_per_frame", "B", false},
		metricDef{"netx.drops", "count", false},
		metricDef{"netx.dials", "count", false},
		metricDef{"netx.wire_to_model_bytes_ratio", "ratio", false},
		metricDef{"netx.msg_count_diff", "count", false},
		metricDef{"wire_bytes_per_op", "B", false},
		metricDef{"store.put_ns", "ns", false},
		metricDef{"store.lookup_ns", "ns", false},
		metricDef{"store.scan_ns_per_entry", "ns", false},
		metricDef{"store.entries_per_triple", "count", false},
		metricDef{"wal.syncs_per_insert", "count", false},
		metricDef{"wal.log_bytes_per_insert", "B", false},
		metricDef{"wal.append_us", "us", false},
		metricDef{"wal.sync_us", "us", false},
		metricDef{"wal.recovery_s", "s", false},
		metricDef{"triple.index_key_ns", "ns", false},
		metricDef{"agg.add_ns", "ns", false},
		metricDef{"trace.overhead_pct", "%", false},
	)
	for _, s := range spanNames {
		ms = append(ms, metricDef{"self_us." + s, "us", false})
	}
	return ms
}()
