// Command flowbench is flowgen's end-to-end benchmark. One invocation
// runs one seeded workload against the public functions of
// internal/synth, internal/core, internal/serve and internal/loop,
// checks that the outputs are correct, and prints every metric with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set (tracing off); with
// -trace 1 the workload runs once untraced and once with spans recorded
// around every layer call the benchmark makes, and the metrics are the
// per-layer set. See README.md for the workloads and metrics.
//
// Usage (from the repository root):
//
//	bash flowbench/run.sh --workload label --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"flowgen/internal/tensor"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"label":      runLabel,
	"develop":    runDevelop,
	"serve_loop": runServeLoop,
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation: its settings, the
// metrics recorded so far and the correctness verdicts.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	workDir  string // scratch space inside the checkout (journals, traces)

	tr *tracer // nil in the untraced pass

	e2e       map[string]metric // end-to-end set (untraced pass)
	layer     map[string]metric // per-layer set (traced pass)
	report    map[string]metric // the workload-specific figures, printed by name
	attempted int64
	failed    int64
	problems  []string
}

func (r *run) setE2E(name string, v float64, unit string)   { r.e2e[name] = metric{v, unit} }
func (r *run) setLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }

// setReport records one workload-specific figure, printed with its unit
// on its own line before the result.
func (r *run) setReport(name string, v float64, unit string) { r.report[name] = metric{v, unit} }

// fail records a failed correctness check.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "flowbench: CHECK FAILED:", msg)
}

// logf writes progress to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "flowbench: "+format+"\n", args...)
}

func main() {
	workload := flag.String("workload", "", "workload to run: label, develop or serve_loop")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 20, "measured seconds per pass")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()

	runner, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: flowbench --workload {label|develop|serve_loop} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	work, err := os.MkdirTemp(benchDir(), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(work)

	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, workDir: work,
		e2e: map[string]metric{}, layer: map[string]metric{}, report: map[string]metric{},
	}
	fmt.Println("env", envStamp())
	steal0, total0 := cpuTimes()
	heap := startHeapSampler()
	err = runner(r)
	r.setE2E("heap_p50_mb", heap.finish(), "MB")
	r.setReport("peak_rss_mb", peakRSSMB(), "MB")
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowbench:", err)
		os.RemoveAll(work)
		os.Exit(1)
	}
	calib, err := calibrate(stealRatio(steal0, total0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowbench: calibration:", err)
		os.RemoveAll(work)
		os.Exit(1)
	}
	fmt.Println("calib", calib)
	if r.traced {
		r.setLayer("failed_ratio", ratio(r.failed, r.attempted), "ratio")
	}
	r.setReport("failed_ratio", ratio(r.failed, r.attempted), "ratio")
	r.setReport("gc_cpu_fraction", gcCPUFraction(), "ratio")
	r.setReport("setup_s", r.e2e["setup_s"].Value, "s")

	for _, name := range sortedKeys(r.report) {
		m := r.report[name]
		fmt.Printf("metric %s %s %s\n", name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	defs, got := e2eMetrics, r.e2e
	if r.traced {
		defs, got = layerMetrics, r.layer
	}
	out := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		m, ok := got[d.name]
		switch {
		case !ok && !r.traced:
			r.fail("end-to-end metric %s was not measured", d.name)
		case ok && m.Unit != d.unit:
			r.fail("metric %s has unit %s, want %s", d.name, m.Unit, d.unit)
		case !ok:
			// The workload does not exercise this layer.
			m = metric{0, d.unit}
		}
		out.Metrics[d.name] = m
	}
	out.Correct = len(r.problems) == 0
	if out.Attempted < 1 {
		out.Correct = false
		out.Attempted = 1
		out.Failed = 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.RemoveAll(work)
		os.Exit(1)
	}
}

// benchDir is the benchmark's build-and-scratch directory inside the
// checkout (run.sh exports it as FLOWBENCH_DIR).
func benchDir() string {
	dir := os.Getenv("FLOWBENCH_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	os.MkdirAll(dir, 0o755)
	return dir
}

// envStamp describes the machine and build every result was measured
// on, as one JSON object.
func envStamp() string {
	sha := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				sha = s.Value
			}
		}
	}
	b, _ := json.Marshal(map[string]any{
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"simd":         tensor.ActiveSIMD().String(),
		"cpu_features": tensor.CPUFeatures(),
		"go":           runtime.Version(),
		"git_sha":      sha,
		"goarch":       runtime.GOARCH,
	})
	return string(b)
}

// heapSampler samples the live heap the garbage collector reports (the
// heap its last cycle marked live) every few milliseconds. Its median is
// the memory the run's data typically needs. Peaks are not steady: the
// resident set also holds the garbage awaiting the next cycle, so it
// moves with where the cycles fall (develop's read 39–51 MB across five
// seeds), and the largest live heap is set by the one largest
// intermediate graph a seed's flows happen to make (label's read 10–13
// MB across four seeds).
type heapSampler struct {
	samples    []float64 // MB
	stop, done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the median live heap in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return median(h.samples)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// gcCPUFraction is the share of the process's CPU time spent in the
// garbage collector so far. The benchmarked code is allocation-bound, so
// this share moves its timings; printing it on every run helps tell a
// shift in collection work apart from a shift in the host.
func gcCPUFraction() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if total := s[1].Value.Float64(); total > 0 {
		return s[0].Value.Float64() / total
	}
	return 0
}

// writeTrace saves the traced pass's spans as JSON lines under the
// benchmark directory.
func (r *run) writeTrace() {
	if r.tr == nil {
		return
	}
	path := filepath.Join(benchDir(), fmt.Sprintf("trace-%s-%d.jsonl", r.workload, r.seed))
	if err := r.tr.writeFile(path); err != nil {
		logf("writing trace: %v", err)
		return
	}
	logf("wrote %d spans to %s", r.tr.len(), path)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
