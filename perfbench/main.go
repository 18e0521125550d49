// Command perfbench is the repository's benchmark: one process runs one
// named workload against the engine, checks its outputs, and prints
// every end-to-end metric (or, with -trace 1, every per-layer metric)
// by name and unit, ending with one JSON line. See README.md. Run it
// from the root of the repository:
//
//	bash perfbench/run.sh --workload serve-shared --seed 1 --seconds 25 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outDir receives the per-run result and span files, relative to the
// working directory (the root of the checkout).
const outDir = ".bench_out"

// opts are one run's settings. The scale fields default to the sizes
// the workloads are defined at; the self-test shrinks them.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	sf     float64 // TPC-H scale factor
	warmup float64 // seconds of load before measuring (open/closed loops)
	setups int     // set-ups per run; setup_s is their median
}

// outcome is what a workload measured; main turns it into metrics.
type outcome struct {
	setups   sample  // seconds per set-up
	ops      int64   // operations completed in the measured window
	wall     float64 // seconds the measured window took
	cpu      float64 // process CPU seconds over the measured window
	lat      sample  // per-operation latency in ms, for p50_ms
	rss      float64 // peak resident set in MB while the load ran
	measured time.Time
}

// run carries one benchmark run's state through a workload.
type run struct {
	opts
	tr    *tracer
	layer map[string]value

	attempted, failed int64
	problems          []string
}

// set records a per-layer metric.
func (r *run) set(name string, v float64) { r.layer[name] = value{v: v} }

// setPct records a percentile of s as a per-layer metric, 0 when the
// sample does not support it.
func (r *run) setPct(name string, s sample, p float64) {
	v, ok := s.pct(p)
	if !ok {
		v = 0
	}
	r.layer[name] = value{v: v, n: len(s)}
}

// problem records a failed output check.
func (r *run) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*run) (*outcome, error){
	"tpch-sim":     runTPCHSim,
	"serve-shared": runServeShared,
	"http-htap":    runHTTPHTAP,
}

// defaultSF is each workload's TPC-H scale factor.
var defaultSF = map[string]float64{
	"tpch-sim":     0.01,
	"serve-shared": 0.02,
	"http-htap":    0.05,
}

func main() {
	o := opts{setups: 7, warmup: 2}
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: tpch-sim, serve-shared or http-htap")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 25, "seconds to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = traceFlag == 1
	if _, ok := workloads[o.workload]; !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", o.workload, o.seconds, traceFlag)
		os.Exit(2)
	}
	o.sf = defaultSF[o.workload]
	res, err := execute(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, o, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
	counts    map[string]int        // sample count per metric, for the report
	problems  []string
	// layers are the per-layer values an untraced run measured on the
	// way; the result file keeps them so the two runs can be compared.
	layers map[string]float64
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload and derives its metrics.
func execute(o opts) (*result, error) {
	r := &run{opts: o, tr: newTracer(o.trace), layer: map[string]value{}}
	out, err := workloads[o.workload](r)
	if err != nil {
		return nil, err
	}
	if out.ops <= 0 || out.wall <= 0 || len(out.lat) == 0 || len(out.setups) == 0 {
		return nil, fmt.Errorf("%s measured nothing (ops %d, wall %.3fs)", o.workload, out.ops, out.wall)
	}
	vals := map[string]value{}
	defs := e2eMetrics
	if o.trace {
		defs = layerMetrics
		vals = r.layer
		vals["trace.cpu_ms_per_op"] = value{v: out.cpu * 1e3 / float64(out.ops)}
		vals["trace.ops_per_s"] = value{v: float64(out.ops) / out.wall}
		spans := r.tr.count()
		vals["trace.spans"] = value{v: float64(spans)}
		vals["trace.overhead_pct"] = value{v: 100 * spanCost().Seconds() * float64(spans) / out.cpu}
		for layer, d := range r.tr.selfTime(out.measured) {
			if name := "self_ms." + layer; declared(layerMetrics, name) {
				vals[name] = value{v: d.Seconds() * 1e3 / float64(out.ops)}
			}
		}
	} else {
		vals["setup_s"] = value{v: out.setups.median(), n: len(out.setups)}
		vals["rss_mb"] = value{v: out.rss}
		vals["ops_per_s"] = value{v: float64(out.ops) / out.wall}
		vals["cpu_ms_per_op"] = value{v: out.cpu * 1e3 / float64(out.ops)}
		vals["p50_ms"] = value{v: out.lat.median(), n: len(out.lat)}
	}
	res := &result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
		counts:    map[string]int{},
		problems:  r.problems,
	}
	if !o.trace {
		res.layers = map[string]float64{}
		for name, v := range r.layer {
			res.layers[name] = v.v
		}
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v.v)
		}
		res.Metrics[d.name] = jsonMetric{Value: v.v, Unit: d.unit}
		res.counts[d.name] = v.n
	}
	for name := range vals {
		if !declared(defs, name) {
			return nil, fmt.Errorf("workload set undeclared metric %s", name)
		}
	}
	if o.trace {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if err := r.tr.write(filepath.Join(outDir, runName(o)+"-spans.jsonl")); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return res, nil
}

func declared(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

func runName(o opts) string {
	t := 0
	if o.trace {
		t = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, t)
}

// report prints the host, every metric with its unit and sample count,
// and the failed checks; writes the same to outDir; and ends stdout with
// the result line.
func report(w io.Writer, o opts, res *result) error {
	var b strings.Builder
	h := hostInfo()
	fmt.Fprintf(&b, "host: nproc=%d cpu=%q go=%s GOMAXPROCS=%d\n", h.NProc, h.CPU, h.Go, h.GOMAXPROCS)
	fmt.Fprintf(&b, "run: workload=%s seed=%d seconds=%g trace=%v sf=%g\n", o.workload, o.seed, o.seconds, o.trace, o.sf)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		n := ""
		if c := res.counts[name]; c > 0 {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(&b, "  %-28s %14.6g %-6s%s\n", name, m.Value, m.Unit, n)
	}
	fmt.Fprintf(&b, "checks: attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, p := range res.problems {
		fmt.Fprintf(&b, "  FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	file := struct {
		Host    host               `json:"host"`
		Run     string             `json:"run"`
		Result  *result            `json:"result"`
		Samples map[string]int     `json:"samples"`
		Failed  []string           `json:"failed_checks"`
		Layers  map[string]float64 `json:"untraced_layer_values,omitempty"`
	}{h, runName(o), res, res.counts, res.problems, res.layers}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, runName(o)+".json"), data, 0o644); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s%s\n", b.String(), line)
	return err
}

type host struct {
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// residentMB is the process's resident set (VmRSS) in MB.
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// watchRSS samples the resident set until the returned function is
// called, which returns the largest sample in MB. Set-up, which the
// benchmark repeats, is left out of the peak by starting after it.
func watchRSS() (stop func() float64) {
	done := make(chan struct{})
	peak := make(chan float64)
	go func() {
		p := residentMB()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				peak <- max(p, residentMB())
				return
			case <-tick.C:
				p = max(p, residentMB())
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

// spanCost measures what recording one span costs on this host, so the
// traced run can state its own overhead.
func spanCost() time.Duration {
	t := newTracer(true)
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.start("calibrate", int64(i), 0))
	}
	return time.Since(start) / n
}

// timed runs fn and returns its duration in seconds.
func timed(fn func()) float64 {
	t := time.Now()
	fn()
	return time.Since(t).Seconds()
}
