package main

// metricDef names one reported metric. End-to-end metrics carry the
// bound BENCHMARK.json fixes for them; per-layer metrics carry the
// end-to-end metric and workload they are expected to move, which is the
// per-layer → end-to-end mapping a change to that layer is judged by.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	moves  string
}

// endToEnd is reported by every workload with --trace 0. The names are
// workload-neutral so every workload reports every metric:
//
//	throughput_per_s  lfo-*: requests_per_s      fleet-admit: rows_per_s (median pass)
//	latency_p50_us    lfo-*: request_p50_us      fleet-admit: burst_p50_us
//	latency_p95_us    lfo-*: request_p95_us      fleet-admit: burst_p95_us
//	retrain_p50_s     lfo-*: sync boundary stall fleet-admit: core.TrainOnWindow at set-up
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "throughput_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "latency_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "latency_p95_us", unit: "us", better: "lower", bound: 0.25},
	{name: "retrain_p50_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},
}

// perLayer is reported by every workload with --trace 1; a layer the
// workload does not run reports 0.
var perLayer = []metricDef{
	{name: "cache.bhr", unit: "ratio", better: "higher", moves: "none: the quality guard; lfo-*: the LFO cache after its first window, fleet-admit: an LRU admitting where the served likelihood >= 0.5"},
	{name: "cache.ohr", unit: "ratio", better: "higher", moves: "none: the quality guard, as cache.bhr"},
	{name: "opt.compute_s", unit: "s", better: "lower", moves: "retrain_p50_s, throughput_per_s: most on lfo-cdn, less on lfo-web, none on fleet-admit"},
	{name: "opt.segments", unit: "count", better: "lower", moves: "retrain_p50_s on lfo-*"},
	{name: "opt.flow_intervals", unit: "count", better: "higher", moves: "cache.bhr, cache.ohr on lfo-* (label quality)"},
	{name: "opt.greedy_intervals", unit: "count", better: "lower", moves: "cache.bhr, cache.ohr on lfo-* (label quality)"},
	{name: "opt.dropped_intervals", unit: "count", better: "lower", moves: "cache.bhr, cache.ohr on lfo-* (label quality)"},
	{name: "opt.admit_share", unit: "ratio", better: "higher", moves: "cache.bhr, cache.ohr on lfo-* (label quality)"},
	{name: "gbdt.train_s", unit: "s", better: "lower", moves: "retrain_p50_s on lfo-* (most on lfo-web); setup_s on fleet-admit"},
	{name: "gbdt.train_rows", unit: "count", better: "higher", moves: "retrain_p50_s on lfo-*; setup_s on fleet-admit"},
	{name: "gbdt.train_accuracy", unit: "ratio", better: "higher", moves: "cache.bhr, cache.ohr on all workloads"},
	{name: "gbdt.predict_ns", unit: "ns", better: "lower", moves: "latency_p50_us on lfo-*; throughput_per_s on fleet-admit"},
	{name: "features.extract_ns", unit: "ns", better: "lower", moves: "latency_p50_us on lfo-*; throughput_per_s on fleet-admit"},
	{name: "features.update_ns", unit: "ns", better: "lower", moves: "latency_p50_us on lfo-*; throughput_per_s on fleet-admit"},
	{name: "core.request_ns", unit: "ns", better: "lower", moves: "latency_p50_us, latency_p95_us on lfo-*"},
	{name: "core.self_ns", unit: "ns", better: "lower", moves: "latency_p50_us, latency_p95_us on lfo-*"},
	{name: "core.unattributed_share", unit: "ratio", better: "lower", moves: "latency_p50_us on lfo-* (share of core.request_ns outside the layer spans)"},
	{name: "core.rescore_ms", unit: "ms", better: "lower", moves: "retrain_p50_s on lfo-cdn"},
	{name: "core.hits", unit: "count", better: "higher", moves: "cache.bhr, cache.ohr on lfo-*"},
	{name: "core.retrains", unit: "count", better: "higher", moves: "retrain_p50_s, throughput_per_s on lfo-*"},
	{name: "core.allocs_per_request", unit: "count", better: "lower", moves: "latency_p95_us, peak_rss_mb on lfo-*"},
	{name: "core.bytes_per_request", unit: "B", better: "lower", moves: "latency_p95_us, peak_rss_mb on lfo-*"},
	{name: "evict.pick_us", unit: "us", better: "lower", moves: "latency_p95_us on lfo-web; no change on lfo-cdn"},
	{name: "evict.picks", unit: "count", better: "lower", moves: "latency_p95_us on lfo-web; no change on lfo-cdn"},
	{name: "evict.train_s", unit: "s", better: "lower", moves: "retrain_p50_s on lfo-web; no change on lfo-cdn"},
	{name: "server.batch_us", unit: "us", better: "lower", moves: "throughput_per_s, latency_p95_us on fleet-admit only"},
	{name: "server.rows", unit: "count", better: "higher", moves: "throughput_per_s on fleet-admit only"},
	{name: "server.errors", unit: "count", better: "lower", moves: "bench.fail_ratio on fleet-admit only"},
	{name: "fleet.enqueue_ns", unit: "ns", better: "lower", moves: "throughput_per_s, latency_p50_us on fleet-admit only"},
	{name: "fleet.flush_us", unit: "us", better: "lower", moves: "latency_p50_us, latency_p95_us on fleet-admit only"},
	{name: "fleet.wait_share", unit: "ratio", better: "lower", moves: "throughput_per_s, latency_p95_us on fleet-admit only"},
	{name: "fleet.batches", unit: "count", better: "lower", moves: "throughput_per_s on fleet-admit only"},
	{name: "fleet.fallback_rows", unit: "count", better: "lower", moves: "bench.fail_ratio on fleet-admit only"},
	{name: "fleet.failovers", unit: "count", better: "lower", moves: "bench.fail_ratio on fleet-admit only"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower", moves: "latency_p95_us on all workloads"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower", moves: "latency_p95_us on all workloads"},
	{name: "bench.trace_overhead", unit: "ratio", better: "lower", moves: "none: traced over untraced wall time, minus one"},
	{name: "bench.latency_p99_us", unit: "us", better: "lower", moves: "none: the 99th percentile behind latency_p95_us, reported without a bound because it is not steady across runs"},
	{name: "bench.latency_samples", unit: "count", better: "higher", moves: "none: samples behind latency_p50_us, latency_p95_us and bench.latency_p99_us"},
	{name: "bench.retrain_samples", unit: "count", better: "higher", moves: "none: samples behind retrain_p50_s"},
	{name: "bench.attempted", unit: "count", better: "higher", moves: "none: operations attempted"},
	{name: "bench.succeeded", unit: "count", better: "higher", moves: "none: operations answered by the program's own path"},
	{name: "bench.failed", unit: "count", better: "lower", moves: "none: fallback rows, failovers and transport errors"},
	{name: "bench.fail_ratio", unit: "ratio", better: "lower", moves: "none: failed over attempted"},
}

// workloadDefs lists the workloads in BENCHMARK.json order with the
// reason each was chosen.
var workloadDefs = []struct{ name, why string }{
	{"lfo-cdn", "CDN-mix replay through an LFO cache with rank eviction: OPT is the largest retrain stage and most requests miss or are rejected; internal/evict is bypassed"},
	{"lfo-web", "web-mix replay through an LFO cache with learned eviction: hit- and eviction-heavy request path, and GBDT training weighs more in the retrain than on lfo-cdn"},
	{"fleet-admit", "CDN-mix rows streamed through fleet router, mux wire and one prediction server: codec, router, shard and kernel, with no OPT or training on the timed path"},
}
