package main

// metricDef names one metric of BENCHMARK.json. The tables below are
// the program's own copy of that file's metric lists; bench_test.go
// holds the two to each other.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system would see, measured
// with tracing off. delivery_ratio is reported with them but lives in
// the per-layer list of BENCHMARK.json: it is exactly 1 on every
// healthy run, and the contract's failed-op count is what gates it.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"notify_p50_us", "us", "lower"},
	{"notify_p90_us", "us", "lower"},
	{"capacity_events_s", "events/s", "higher"},
	{"cpu_us_per_event", "us", "lower"},
}

// perLayer is the ledger of the traced run, one block per layer (the
// repo's packages, plus the generator itself and the recorded tail).
var perLayer = []metricDef{
	{"loadgen.delivery_ratio", "ratio", "higher"},
	{"loadgen.late_p99_us", "us", "lower"},
	{"loadgen.late_max_us", "us", "lower"},
	{"loadgen.cpu_share", "ratio", "lower"},
	{"loadgen.build_s", "s", "lower"},
	{"loadgen.trace_overhead_pct", "%", "lower"},

	{"tail.notify_p99_us", "us", "lower"},
	{"tail.notify_p999_us", "us", "lower"},
	{"tail.notify_max_us", "us", "lower"},

	{"drtreed.publish_ack_p50_us", "us", "lower"},
	{"drtreed.notify_local_p50_us", "us", "lower"},
	{"drtreed.notify_remote_p50_us", "us", "lower"},
	{"drtreed.hop_delta_p50_us", "us", "lower"},
	{"drtreed.cpu_us_per_event_d0", "us", "lower"},
	{"drtreed.cpu_us_per_event_d1", "us", "lower"},
	{"drtreed.cpu_us_per_event_d2", "us", "lower"},
	{"drtreed.rss_peak_mb", "MiB", "lower"},
	{"drtreed.seq_gaps", "count", "lower"},
	{"drtreed.ws_notify_p50_us", "us", "lower"},
	{"drtreed.churn_pairs_s", "pairs/s", "higher"},
	{"drtreed.subscribe_us", "us", "lower"},

	{"transport.sent_per_event", "count", "lower"},
	{"transport.idle_msgs_s", "1/s", "lower"},
	{"transport.bounced", "count", "lower"},
	{"transport.dropped", "count", "lower"},
	{"transport.reconnects", "count", "lower"},
	{"transport.oneway_p50_us", "us", "lower"},
	{"transport.frames_s", "1/s", "higher"},

	{"wire.publish_encode_ns", "ns", "lower"},
	{"wire.publish_decode_ns", "ns", "lower"},
	{"wire.notify_encode_ns", "ns", "lower"},
	{"wire.notify_decode_ns", "ns", "lower"},
	{"wire.notify_bytes", "bytes", "lower"},
	{"wire.allocs_per_frame", "count", "lower"},

	{"filter.parse_compile_ns", "ns", "lower"},
	{"filter.point_ns", "ns", "lower"},

	{"rtree.insert_ns", "ns", "lower"},
	{"rtree.query_ns", "ns", "lower"},
	{"rtree.visited_per_query", "count", "lower"},
	{"rtree.matches_per_query", "count", "lower"},

	{"pubsub.subscribe_ns", "ns", "lower"},
	{"pubsub.unsubscribe_ns", "ns", "lower"},
	{"pubsub.publish_b1_ns_per_event", "ns", "lower"},
	{"pubsub.publish_b64_ns_per_event", "ns", "lower"},
	{"pubsub.scan_visited_per_event", "count", "lower"},
	{"pubsub.gateway_visited_per_event", "count", "lower"},
	{"pubsub.allocs_per_event", "count", "lower"},
	{"pubsub.notify_gateway_ns", "ns", "lower"},
	{"pubsub.matched_per_notify", "count", "lower"},
	{"pubsub.union_cover", "ratio", "lower"},

	{"core.publish_ns_per_event", "ns", "lower"},
	{"core.msgs_per_event", "count", "lower"},

	{"proto.inject_to_hook_p50_us", "us", "lower"},
	{"proto.actors", "count", "lower"},
	{"proto.tree_height", "count", "lower"},

	{"eventbus.enqueue_ns", "ns", "lower"},
	{"eventbus.handoff_p50_us", "us", "lower"},
	{"eventbus.dropped_at_2x", "count", "lower"},

	{"state.append_p50_us", "us", "lower"},
	{"state.append_p99_us", "us", "lower"},
	{"state.group_commit_appends_s", "1/s", "higher"},
	{"state.snapshot_ms", "ms", "lower"},
	{"state.recover_ms", "ms", "lower"},
	{"state.wal_bytes_per_sub", "bytes", "lower"},
}
