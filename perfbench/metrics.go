package main

// The metric catalogue. BENCHMARK.json lists the same names and units;
// TestMetricCatalogueMatchesBenchmarkJSON keeps the two in step.

type metricDef struct {
	Name, Unit, Better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_s_per_wall_s", "ratio", "higher"},
	{"heap_live_mb", "MB", "lower"},
	{"analysis_records_per_s", "rec/s", "higher"},
	{"detect_15s_frac", "fraction", "higher"},
	{"rca_20s_frac", "fraction", "higher"},
	{"query_p50_ms", "ms", "lower"},
	{"query_p99_ms", "ms", "lower"},
	{"ingest_p50_ms", "ms", "lower"},
	{"ingest_p99_ms", "ms", "lower"},
}

// queryKinds is the closed-loop client's mix; replicaKinds the subset a
// cluster replica answers (span rings live only on the primary).
var (
	queryKinds   = []string{"reports", "triggers", "trace", "spans", "channels"}
	replicaKinds = []string{"reports", "triggers", "trace", "channels"}
)

// endpointOf maps a query kind to the route label of the program's
// per-endpoint latency histogram.
var endpointOf = map[string]string{
	"reports":  "/v1/reports/query",
	"triggers": "/v1/triggers/query",
	"trace":    "/v1/trace/query",
	"spans":    "/v1/jobs/{id}/spans",
	"channels": "/v1/jobs/{id}/channels",
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	l := []metricDef{
		{"sim.events_per_vs", "events/vs", "lower"},
		{"sim.ns_per_event", "ns", "lower"},
		{"sim.alloc_b_per_event", "B", "lower"},
		{"sim.queue_peak", "count", "lower"},
		{"train.iterations", "count", "higher"},
		{"trace.ring_mb", "MB", "lower"},
		{"trace.records_written", "count", "higher"},
		{"trace.records_lost", "count", "lower"},
		{"trace.emit_ns", "ns", "lower"},
		{"trace.unmarshal_ns", "ns", "lower"},
		{"collector.batches", "count", "higher"},
		{"collector.records_per_batch", "count", "higher"},
		{"collector.drain_ns_per_record", "ns", "lower"},
		{"clouddb.ingest_ns_per_record", "ns", "lower"},
		{"clouddb.query_us", "us", "lower"},
		{"clouddb.records", "count", "higher"},
		{"clouddb.shards", "count", "higher"},
		{"depgraph.observe_ns_per_record", "ns", "lower"},
		{"core.evaluate_us", "us", "lower"},
		{"core.rca_us", "us", "lower"},
		{"core.triggers", "count", "higher"},
		{"core.reports", "count", "higher"},
		{"core.false_triggers", "count", "lower"},
		{"replay.decode_ns_per_record", "ns", "lower"},
		{"replay.artifact_mb", "MB", "lower"},
	}
	for _, k := range queryKinds {
		l = append(l, metricDef{"query.inproc_us." + k, "us", "lower"})
	}
	for _, k := range queryKinds {
		l = append(l, metricDef{"api.round_trip_us." + k, "us", "lower"})
	}
	for _, k := range queryKinds {
		l = append(l, metricDef{"api.server_us." + k, "us", "lower"})
	}
	for _, k := range queryKinds {
		l = append(l, metricDef{"api.resp_bytes." + k, "B", "lower"})
	}
	l = append(l,
		metricDef{"api.errors", "count", "lower"},
		metricDef{"serve.advance_ms", "ms", "lower"},
		metricDef{"logdiag.ingest_ns_per_line", "ns", "lower"},
		metricDef{"perfdiag.ingest_ns_per_sample", "ns", "lower"},
		metricDef{"channels.accepted", "count", "higher"},
		metricDef{"channels.anomalies", "count", "lower"},
		metricDef{"events.delivered", "count", "higher"},
		metricDef{"events.dropped", "count", "lower"},
		metricDef{"cluster.replicate_ms", "ms", "lower"},
		metricDef{"cluster.events_shipped", "count", "higher"},
	)
	for _, k := range replicaKinds {
		l = append(l, metricDef{"cluster.replica_query_us." + k, "us", "lower"})
	}
	return append(l,
		metricDef{"gen.late_ms", "ms", "lower"},
		metricDef{"bench.trace_overhead_frac", "fraction", "lower"},
	)
}

func metricBetter(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Better
		}
	}
	return ""
}
