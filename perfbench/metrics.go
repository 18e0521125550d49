package main

import (
	"math"
	"sort"
)

// metricDef declares one reported metric. The two tables below are the
// benchmark's contract with BENCHMARK.json: every run prints every
// end-to-end metric (untraced) or every per-layer metric (traced), by
// exactly these names and units. The self-test checks they match.
type metricDef struct {
	name, unit string
}

// e2eMetrics are what a user of the system sees; each workload defines
// its operation (see README.md).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"p50_ms", "ms"},
}

// layerMetrics come from the traced run. A metric of a layer the
// workload does not reach reads 0.
var layerMetrics = []metricDef{
	// Tracing itself.
	{"trace.cpu_ms_per_op", "ms"},
	{"trace.ops_per_s", "1/s"},
	{"trace.spans", "count"},
	{"trace.overhead_pct", "%"},
	// End-to-end figures that are not common to every workload.
	{"e2e.p99_ms", "ms"},
	{"e2e.slo_frac", "ratio"},
	{"e2e.fail_frac", "ratio"},
	// Self time per layer, from the spans, per operation.
	{"self_ms.client", "ms"},
	{"self_ms.wire", "ms"},
	{"self_ms.server", "ms"},
	{"self_ms.sched", "ms"},
	{"self_ms.workload", "ms"},
	{"self_ms.exec", "ms"},
	{"self_ms.opt", "ms"},
	// tpch
	{"tpch.generate_s", "s"},
	// workload
	{"workload.engine_new_s", "s"},
	{"workload.run_s.lru", "s"},
	{"workload.run_s.pbm", "s"},
	{"workload.run_s.cscan", "s"},
	{"workload.build_plan_us.p50", "us"},
	{"workload.checkpoints", "count"},
	{"workload.merge_p95_ms", "ms"},
	// Simulated (virtual-time) outcomes of the TPC-H throughput run.
	{"io_mb.lru", "MB"},
	{"io_mb.pbm", "MB"},
	{"io_mb.cscan", "MB"},
	{"stream_s.lru", "s"},
	{"stream_s.pbm", "s"},
	{"stream_s.cscan", "s"},
	// opt
	{"opt.replay_s", "s"},
	{"opt.io_mb", "MB"},
	// sched
	{"sched.price_us.p50", "us"},
	{"sched.admit_wait_ms.p50", "ms"},
	{"sched.admit_wait_ms.p99", "ms"},
	{"sched.max_queue", "count"},
	// exec
	{"exec.open_ms.p50", "ms"},
	{"exec.run_ms.p50", "ms"},
	{"exec.run_ms.p99", "ms"},
	{"exec.tuples_per_cpu_s", "1/s"},
	// buffer
	{"buffer.hit_rate", "ratio"},
	{"buffer.stalls", "count"},
	{"buffer.hit_rate.lru", "ratio"},
	{"buffer.hit_rate.pbm", "ratio"},
	{"buffer.evictions.pbm", "count"},
	{"buffer.stalls.pbm", "count"},
	// abm
	{"abm.chunks_loaded", "count"},
	{"abm.blocked_loads", "count"},
	// iosim
	{"iosim.requests.lru", "count"},
	{"iosim.requests.pbm", "count"},
	{"iosim.requests.cscan", "count"},
	{"iosim.seeks.lru", "count"},
	{"iosim.seeks.pbm", "count"},
	{"iosim.seeks.cscan", "count"},
	{"iosim.busy_s.lru", "s"},
	{"iosim.busy_s.pbm", "s"},
	{"iosim.busy_s.cscan", "s"},
	{"iosim.read_mb", "MB"},
	{"iosim.busy_frac", "ratio"},
	{"iosim.max_queue", "count"},
	// server and wire
	{"client.ttfb_ms.p50", "ms"},
	{"client.ttfb_ms.p99", "ms"},
	{"client.write_ms.p50", "ms"},
	{"client.write_ms.p99", "ms"},
	{"server.handle_ms.p50", "ms"},
	{"server.queue_wait_ms.p99", "ms"},
	{"wire.stream_ms.p50", "ms"},
	{"wire.mb_per_s", "MB/s"},
	// pdt
	{"pdt.apply_ms.p50", "ms"},
	{"pdt.apply_ms.p99", "ms"},
	// Load generator validity.
	{"gen.late_ms.p99", "ms"},
}

// value is one measured metric: n is its sample count when it is a
// statistic over samples (a percentile or median), 0 otherwise.
type value struct {
	v float64
	n int
}

// sample is a set of measurements of one quantity.
type sample []float64

// minBeyond is how many samples must lie beyond a percentile before it
// is reported.
const minBeyond = 10

// pct returns the p-quantile (nearest rank) and whether the sample
// supports it: the median needs one sample, a higher percentile needs
// minBeyond samples above its rank.
func (s sample) pct(p float64) (float64, bool) {
	n := len(s)
	if n == 0 {
		return 0, false
	}
	sorted := append(sample(nil), s...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if p > 0.5 && n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// median is pct(0.5) for samples that are known non-empty.
func (s sample) median() float64 {
	v, _ := s.pct(0.5)
	return v
}
