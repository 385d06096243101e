package main

// metricDef names one metric with its unit and the direction that is
// better. BENCHMARK.json restates these tables for the driver; a test holds
// the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // share of the baseline median by which it may worsen

	// gated metrics are in BENCHMARK.json and apply to every workload. The
	// others are end-to-end all the same — printed, recorded and compared —
	// but cannot be gated by the driver: the write latencies exist on
	// serve-mixed only, and failed_share is 0 on a healthy run (the driver
	// reads failures from the result line's own counts).
	gated bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndDefs is what a caller of the system sees. Bounds come from the
// spreads recorded in baseline/spread-ten-seeds.txt: three times the widest
// interquartile spread over ten seeds on any workload, capped at the
// driver's 25 % (which is where every timing on this shared host lands).
var endToEndDefs = []metricDef{
	{"setup_s", "s", lower, 0.25, true},
	{"rknn_qps", "1/s", higher, 0.25, true},
	{"rknn_p50_ms", "ms", lower, 0.25, true},
	{"rknn_p95_ms", "ms", lower, 0.25, true},
	{"write_p50_ms", "ms", lower, 0.25, false},
	{"write_p95_ms", "ms", lower, 0.25, false},
	{"recall", "ratio", higher, 0.02, true},
	{"precision", "ratio", higher, 0.02, true},
	{"failed_share", "ratio", lower, 0, false},
	{"allocs_per_op", "count", lower, 0.10, true},
	{"alloc_kb_per_op", "KB", lower, 0.10, true},
	{"cpu_ms_per_op", "ms", lower, 0.25, true},
	{"heap_mb", "MB", lower, 0.02, true},
}

// perLayerDefs is the ladder, bottom to top. No bounds: these explain a change
// in an end-to-end metric, they do not gate it.
var perLayerDefs = []metricDef{
	{Name: "vecmath.l2_ns_per_distance", Unit: "ns", Better: lower},
	{Name: "vecmath.l2_scalar_ns_per_distance", Unit: "ns", Better: lower},
	{Name: "vecmath.block_l2_ns_per_distance", Unit: "ns", Better: lower},

	{Name: "index.build_s", Unit: "s", Better: lower},
	{Name: "index.knn_us", Unit: "us", Better: lower},
	{Name: "index.knn_exhaustive_us", Unit: "us", Better: lower},
	{Name: "index.cursor_ns_per_neighbor", Unit: "ns", Better: lower},
	{Name: "index.overlay_knn_us", Unit: "us", Better: lower},
	{Name: "index.overlay_dirty_knn_us", Unit: "us", Better: lower},
	{Name: "index.compactions", Unit: "count", Better: lower},
	{Name: "index.memtable_len_end", Unit: "count", Better: lower},

	{Name: "core.rknn_us", Unit: "us", Better: lower},
	{Name: "core.scan_depth", Unit: "count", Better: lower},
	{Name: "core.candidates", Unit: "count", Better: lower},
	{Name: "core.lazy_accepts", Unit: "count", Better: higher},
	{Name: "core.lazy_rejects", Unit: "count", Better: higher},
	{Name: "core.verified", Unit: "count", Better: lower},
	{Name: "core.witness_dist_comps", Unit: "count", Better: lower},
	{Name: "core.pruning_ratio", Unit: "ratio", Better: higher},
	{Name: "core.scan_us", Unit: "us", Better: lower},
	{Name: "core.verify_us", Unit: "us", Better: lower},
	{Name: "core.filter_us", Unit: "us", Better: lower},
	{Name: "core.rknn_per_knn", Unit: "ratio", Better: lower},

	{Name: "facade.rknn_us", Unit: "us", Better: lower},
	{Name: "facade.tax_us", Unit: "us", Better: lower},
	{Name: "facade.knn_us", Unit: "us", Better: lower},
	{Name: "facade.insert_us", Unit: "us", Better: lower},
	{Name: "facade.delete_us", Unit: "us", Better: lower},

	{Name: "scatter.s1_rknn_us", Unit: "us", Better: lower},
	{Name: "scatter.s1_tax_us", Unit: "us", Better: lower},
	{Name: "scatter.s3_rknn_us", Unit: "us", Better: lower},
	{Name: "scatter.s3_slowdown", Unit: "ratio", Better: lower},
	{Name: "scatter.candidates_per_query", Unit: "count", Better: lower},
	{Name: "scatter.knn_probes_per_query", Unit: "count", Better: lower},
	{Name: "scatter.useful_share", Unit: "ratio", Better: higher},
	{Name: "scatter.merge_ns", Unit: "ns", Better: lower},

	{Name: "wire.rknn_req_encode_ns", Unit: "ns", Better: lower},
	{Name: "wire.rknn_resp_decode_ns", Unit: "ns", Better: lower},
	{Name: "wire.knnbatch_encode_ns", Unit: "ns", Better: lower},
	{Name: "wire.knnbatch_decode_ns", Unit: "ns", Better: lower},
	{Name: "wire.bytes_per_query", Unit: "B", Better: lower},

	{Name: "server.handler_rknn_us", Unit: "us", Better: lower},
	{Name: "server.http_rknn_us", Unit: "us", Better: lower},
	{Name: "server.json_tax_us", Unit: "us", Better: lower},
	{Name: "server.socket_tax_us", Unit: "us", Better: lower},
	{Name: "server.binary_rknn_us", Unit: "us", Better: lower},

	{Name: "coordinator.rknn_us", Unit: "us", Better: lower},
	{Name: "coordinator.network_tax_us", Unit: "us", Better: lower},
	{Name: "coordinator.rpcs_per_query", Unit: "count", Better: lower},
	{Name: "coordinator.req_bytes_per_query", Unit: "B", Better: lower},
	{Name: "coordinator.resp_bytes_per_query", Unit: "B", Better: lower},
	{Name: "coordinator.retries", Unit: "count", Better: lower},
	{Name: "coordinator.front_http_rknn_us", Unit: "us", Better: lower},

	{Name: "persist.durable_insert_us", Unit: "us", Better: lower},
	{Name: "persist.wal_tax_us", Unit: "us", Better: lower},
	{Name: "persist.wal_bytes_per_write", Unit: "B", Better: lower},
	{Name: "persist.snapshot_s", Unit: "s", Better: lower},
	{Name: "persist.reopen_s", Unit: "s", Better: lower},
	{Name: "persist.disk_bytes_per_point", Unit: "B", Better: lower},
}
