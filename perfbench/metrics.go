package main

// metric is one reported quantity. BENCHMARK.json lists the same names,
// units and directions; TestMetricTablesMatchBenchmarkJSON keeps them equal.
type metric struct {
	name, unit, better string
	// in names the workloads that measure the metric; empty means every
	// workload. A per-layer metric of a layer a workload leaves idle reads 0
	// there: no time spent, nothing counted.
	in []string
}

// endToEnd metrics are measured with tracing off, on every workload.
var endToEnd = []metric{
	{"setup_s", "s", "lower", nil},
	{"ops_per_s", "1/s", "higher", nil},
	{"peak_rss_bytes", "B", "lower", nil},
}

var (
	batch  = []string{"stream", "replay"}
	stream = []string{"stream"}
	replay = []string{"replay"}
	serve  = []string{"serve"}
)

// perLayer metrics come from the traced run: from its traced repetitions,
// except untracedLayers. README.md maps each to the end-to-end metric it
// should move.
var perLayer = []metric{
	{"topology.guest_s", "s", "lower", batch},
	{"topology.host_s", "s", "lower", batch},

	{"pebble.build.busy_s", "s", "lower", stream},
	{"pebble.pipe.send_wait_s", "s", "lower", stream},
	{"pebble.pipe.recv_wait_s", "s", "lower", stream},
	{"pebble.validate.busy_s", "s", "lower", stream},
	{"pebble.chunk.append_s", "s", "lower", stream},
	{"pebble.chunk.encoded_bytes", "B", "lower", stream},
	{"pebble.chunk.spilled_bytes", "B", "lower", stream},
	{"pebble.chunk.peak_resident_bytes", "B", "lower", stream},
	{"pebble.stream.host_steps", "count", "lower", stream},
	{"pebble.stream.ops", "count", "lower", stream},
	{"pebble.stream.ops_per_step", "count", "higher", stream},
	{"paper.slowdown", "ratio", "lower", stream},
	{"paper.inefficiency_k", "ratio", "lower", stream},
	{"paper.slowdown_per_bound", "ratio", "lower", stream},

	{"pebble.build_s", "s", "lower", replay},
	{"pebble.chunk.decode_s", "s", "lower", replay},
	{"pebble.state.validate_s", "s", "lower", replay},
	{"pebble.sharded.validate_s", "s", "lower", replay},
	{"redblue.replay_s", "s", "lower", replay},
	{"pebble.stream_validator_s", "s", "lower", replay},
	{"redblue.loads", "count", "lower", replay},
	{"redblue.reloads", "count", "lower", replay},
	{"redblue.stores", "count", "lower", replay},
	{"redblue.reload_ratio", "ratio", "lower", replay},

	{"service.completed", "count", "higher", serve},
	{"service.latency_p50_ms", "ms", "lower", serve},
	{"service.latency_p99_ms", "ms", "lower", serve},
	{"service.hit.latency_p50_ms", "ms", "lower", serve},
	{"service.miss.latency_p50_ms", "ms", "lower", serve},
	{"service.miss.latency_p90_ms", "ms", "lower", serve},
	{"service.hit_share", "ratio", "higher", serve},
	{"service.stage.decode.mean_us", "us", "lower", serve},
	{"service.stage.cache.mean_us", "us", "lower", serve},
	{"service.stage.encode.mean_us", "us", "lower", serve},
	{"service.stage.queue.mean_us", "us", "lower", serve},
	{"service.stage.compute.mean_us", "us", "lower", serve},
	{"cache.hit_ratio", "ratio", "higher", serve},
	{"cache.coalesced", "count", "higher", serve},
	{"service.hosts.hit_ratio", "ratio", "higher", serve},
	{"routing.schedules.hit_ratio", "ratio", "higher", serve},
	{"service.rejected", "count", "lower", serve},
	{"service.deadline_exceeded", "count", "lower", serve},

	{"process.cpu_s", "s", "lower", nil},
	{"runtime.alloc_bytes", "B", "lower", nil},
	{"runtime.gc_cycles", "count", "lower", nil},
	{"runtime.gc_cpu_s", "s", "lower", nil},
	{"trace.overhead", "ratio", "lower", nil},
}

// untracedLayers are the per-layer metrics a traced run takes from its
// untraced repetitions: client-side latencies, which tracing's middleware
// and span writes would inflate, and whole-process costs.
var untracedLayers = map[string]bool{
	"service.completed":           true,
	"service.latency_p50_ms":      true,
	"service.latency_p99_ms":      true,
	"service.hit.latency_p50_ms":  true,
	"service.miss.latency_p50_ms": true,
	"service.miss.latency_p90_ms": true,
	"service.hit_share":           true,
	"process.cpu_s":               true,
	"runtime.alloc_bytes":         true,
	"runtime.gc_cycles":           true,
	"runtime.gc_cpu_s":            true,
}

// measuredBy reports whether workload measures m.
func (m metric) measuredBy(workload string) bool {
	if len(m.in) == 0 {
		return true
	}
	for _, w := range m.in {
		if w == workload {
			return true
		}
	}
	return false
}
