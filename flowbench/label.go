package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"flowgen/internal/aig"
	"flowgen/internal/circuits"
	"flowgen/internal/flow"
	"flowgen/internal/rewrite"
	"flowgen/internal/synth"
	"flowgen/internal/techmap"
)

// labelDesigns are the bench-scale stand-ins for the paper's ALU,
// Montgomery and AES designs, each with its share of a traced pass's
// time. The measured pass labels alu8 alone: a 25 s pass labels about a
// hundred alu8 flows but only a few mont8 or miniaes2 flows, too few for
// a CPU cost or a peak heap that holds still from one seed to the next.
var labelDesigns = []struct {
	name  string
	share float64
}{{"alu8", 0.8}, {"mont8", 0.1}, {"miniaes2", 0.1}}

// setupReps is how many times a workload repeats its set-up; setup_s is
// the median.
const setupReps = 25

// labelFlowsPerDesign bounds the unique random flows generated per
// design; a pass labels as many of them as its time allows.
const labelFlowsPerDesign = 2000

// labelEngine is one design's engine with the flows it labels. Every
// EvaluateAll call gets a fresh engine, so no call reuses the memo
// tables of an earlier one: across calls, the engine's transition cache
// skips a share of the steps that depends on which flows the seed drew,
// and with one engine per pass alu8's median call moved 13–25% between
// seeds while one seed repeated within 3%. Prefix and convergence
// sharing across a batch is develop's to measure.
type labelEngine struct {
	design  string
	share   float64 // of the pass's time
	master  *aig.AIG
	space   flow.Space
	workers int
	eng     *synth.Engine   // the current call's engine
	memo    synth.MemoStats // summed over the finished calls' engines
	flows   []flow.Flow
	qors    []synth.QoR
	lat     []float64     // wall ms of each EvaluateAll call
	cpu     time.Duration // process CPU time of the EvaluateAll calls
	busy    time.Duration
}

// fresh builds a new memoized engine for the design.
func (le *labelEngine) fresh() *synth.Engine {
	eng := synth.NewEngine(le.master, le.space)
	eng.Workers = le.workers
	eng.Memo = true
	return eng
}

// cpuPerFlow is the process CPU milliseconds spent per flow labeled.
func (le *labelEngine) cpuPerFlow() float64 {
	return millis(le.cpu) / float64(len(le.flows))
}

// newLabelEngines builds the first n designs and their first engines:
// design build and matcher build, the work set-up pays.
func newLabelEngines(space flow.Space, workers, n int) ([]*labelEngine, error) {
	out := make([]*labelEngine, 0, n)
	for _, ld := range labelDesigns[:n] {
		d, err := circuits.ByName(ld.name)
		if err != nil {
			return nil, err
		}
		le := &labelEngine{design: ld.name, share: ld.share, master: d.Build(), space: space, workers: workers}
		le.eng = le.fresh()
		out = append(out, le)
	}
	return out, nil
}

// labelInputs generates the first n designs' seeded, unique random
// flows.
func labelInputs(space flow.Space, seed int64, count, n int) map[string][]flow.Flow {
	out := map[string][]flow.Flow{}
	for i, ld := range labelDesigns[:n] {
		rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
		out[ld.name] = space.RandomUnique(rng, count)
	}
	return out
}

// labelPass labels each design's flows in calls of `batch` flows, one
// design after the other, until the design's share of the time budget
// (relative to the other designs passed) is spent, always at least one
// call per design.
func labelPass(engines []*labelEngine, inputs map[string][]flow.Flow, batch int, budget time.Duration, tr *tracer, mem *memTally) error {
	total := 0.0
	for _, le := range engines {
		total += le.share
	}
	for _, le := range engines {
		all := inputs[le.design]
		share := time.Duration(le.share / total * float64(budget))
		start := time.Now()
		for call := 0; call == 0 || time.Since(start) < share; call++ {
			if call > 0 {
				le.eng = le.fresh() // untimed, like set-up
			}
			lo := call * batch
			if lo+batch > len(all) {
				return fmt.Errorf("label: %s ran out of generated flows", le.design)
			}
			fl := all[lo : lo+batch]
			_, end := tr.start("synth.evaluate_all", 0, fmt.Sprintf("label/%s/%d", le.design, call))
			mem.before()
			c0 := cpuTime()
			t0 := time.Now()
			qs, err := le.eng.EvaluateAll(fl, nil)
			d := time.Since(t0)
			le.cpu += cpuTime() - c0
			mem.after(len(fl))
			end()
			if err != nil {
				return fmt.Errorf("label %s: %w", le.design, err)
			}
			le.memo = addMemo(le.memo, le.eng.MemoStats())
			le.flows = append(le.flows, fl...)
			le.qors = append(le.qors, qs...)
			le.lat = append(le.lat, millis(d))
			le.busy += d
		}
	}
	return nil
}

// qorDigest hashes flows with their QoRs bit for bit.
func qorDigest(flows []flow.Flow, qors []synth.QoR) string {
	h := sha256.New()
	var buf [8]byte
	for i, f := range flows {
		h.Write([]byte(f.Key()))
		q := qors[i]
		for _, v := range []uint64{math.Float64bits(q.Area), math.Float64bits(q.Delay),
			uint64(q.Gates), uint64(q.Ands), uint64(q.Levels)} {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkDirect re-evaluates a seeded sample of each engine's flows on the
// direct path (Engine.Evaluate) and compares with the memoized QoRs.
func checkDirect(r *run, engines []*labelEngine, perDesign int) {
	type job struct {
		le *labelEngine
		i  int
	}
	rng := rand.New(rand.NewSource(r.seed*31 + 5))
	var jobs []job
	for _, le := range engines {
		for k := 0; k < perDesign && k < len(le.flows); k++ {
			jobs = append(jobs, job{le, rng.Intn(len(le.flows))})
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for _, j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			q, err := j.le.eng.Evaluate(j.le.flows[j.i])
			mu.Lock()
			defer mu.Unlock()
			r.attempted++
			if err != nil {
				r.failed++
				r.fail("%s: direct evaluation: %v", j.le.design, err)
				return
			}
			if q != j.le.qors[j.i] {
				r.fail("%s: direct QoR %+v != memo QoR %+v for flow %s", j.le.design, q, j.le.qors[j.i], j.le.flows[j.i].String(j.le.eng.Space))
			}
		}()
	}
	wg.Wait()
}

// memTally accumulates allocation counts around EvaluateAll calls and
// the GC share of CPU time over the pass. A nil tally records nothing.
type memTally struct {
	ms      runtime.MemStats
	mallocs uint64
	bytes   uint64
	flows   int
	samples []metrics.Sample
	gc0     float64
	total0  float64
}

func newMemTally() *memTally {
	t := &memTally{samples: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
	metrics.Read(t.samples)
	t.gc0, t.total0 = t.samples[0].Value.Float64(), t.samples[1].Value.Float64()
	return t
}

func (t *memTally) before() {
	if t == nil {
		return
	}
	runtime.ReadMemStats(&t.ms)
	t.mallocs -= t.ms.Mallocs
	t.bytes -= t.ms.TotalAlloc
}

func (t *memTally) after(flows int) {
	if t == nil {
		return
	}
	runtime.ReadMemStats(&t.ms)
	t.mallocs += t.ms.Mallocs
	t.bytes += t.ms.TotalAlloc
	t.flows += flows
}

// report records the allocation and GC per-layer metrics.
func (t *memTally) report(r *run) {
	metrics.Read(t.samples)
	gc := t.samples[0].Value.Float64() - t.gc0
	total := t.samples[1].Value.Float64() - t.total0
	if t.flows > 0 {
		r.setLayer("synth.allocs_per_flow", float64(t.mallocs)/float64(t.flows), "count")
		r.setLayer("synth.alloc_bytes_per_flow", float64(t.bytes)/float64(t.flows), "B")
	}
	if total > 0 {
		r.setLayer("synth.gc_cpu_fraction", gc/total, "ratio")
	}
}

// passMetric is the rewrite.<pass> metric stem of a transformation name.
func passMetric(name string) string {
	return "rewrite." + strings.ReplaceAll(name, " -z", "_z")
}

// replayTally accumulates the pass-by-pass replay's AND counts.
type replayTally struct {
	ands  map[string]float64
	calls map[string]int
}

// replayFlow applies f step by step with a span around every
// rewrite.Step and the final techmap.Map, mirroring Engine.Evaluate, and
// returns the resulting QoR.
func replayFlow(tr *tracer, eng *synth.Engine, f flow.Flow, trace string, rt *replayTally) (synth.QoR, error) {
	parent, end := tr.start("replay.flow", 0, trace)
	defer end()
	g := eng.Master().Cleanup()
	for _, name := range f.Names(eng.Space) {
		t, err := rewrite.ByName(name)
		if err != nil {
			return synth.QoR{}, err
		}
		_, done := tr.start(passMetric(name), parent, trace)
		g = rewrite.Step(t, g)
		done()
		rt.ands[passMetric(name)] += float64(g.NumAnds())
		rt.calls[passMetric(name)]++
	}
	_, done := tr.start("techmap.map", parent, trace)
	q := techmap.Map(g, eng.Matcher(), eng.MapMode)
	done()
	return synth.QoR{Area: q.Area, Delay: q.Delay, Gates: q.Gates, Ands: g.NumAnds(), Levels: g.RecomputeLevels()}, nil
}

// reportReplay records the rewrite and techmap per-layer metrics.
func reportReplay(r *run, rt *replayTally) {
	self := r.tr.selfTimes()
	for _, name := range rewrite.Names {
		m := passMetric(name)
		r.setLayer(m+".ms", self[m].PerCall(time.Millisecond), "ms")
		if rt.calls[m] > 0 {
			r.setLayer(m+".ands_out", rt.ands[m]/float64(rt.calls[m]), "count")
		}
	}
	r.setLayer("techmap.map.ms", self["techmap.map"].PerCall(time.Millisecond), "ms")
}

// addMemo sums two engines' memo counters; PeakGraphs is the larger.
func addMemo(a, b synth.MemoStats) synth.MemoStats {
	a.TransformsRun += b.TransformsRun
	a.DirectSteps += b.DirectSteps
	a.MapCalls += b.MapCalls
	a.MapCacheHits += b.MapCacheHits
	a.PeakGraphs = max(a.PeakGraphs, b.PeakGraphs)
	return a
}

// reportMemo records the engines' memo counters as per-layer metrics.
func reportMemo(r *run, stats []synth.MemoStats) {
	var s synth.MemoStats
	for _, m := range stats {
		s = addMemo(s, m)
	}
	r.setLayer("synth.transforms_run", float64(s.TransformsRun), "count")
	r.setLayer("synth.direct_steps", float64(s.DirectSteps), "count")
	if s.TransformsRun > 0 {
		r.setLayer("synth.share_ratio", float64(s.DirectSteps)/float64(s.TransformsRun), "ratio")
	}
	r.setLayer("synth.map_calls", float64(s.MapCalls), "count")
	r.setLayer("synth.map_cache_hits", float64(s.MapCacheHits), "count")
	r.setLayer("synth.peak_graphs", float64(s.PeakGraphs), "count")
}

// runLabel is the `label` workload: seeded unique random paper-space
// flows labeled on fresh memoized engines, nproc flows per call.
func runLabel(r *run) error {
	space := flow.PaperSpace()
	workers := runtime.NumCPU()
	budget := time.Duration(r.seconds * float64(time.Second))

	var setups []float64
	var engines []*labelEngine
	var inputs map[string][]flow.Flow
	for i := 0; i < setupReps; i++ {
		took, err := timeSetup(func() (err error) {
			engines, err = newLabelEngines(space, workers, 1)
			inputs = labelInputs(space, r.seed, labelFlowsPerDesign, 1)
			return err
		})
		if err != nil {
			return err
		}
		setups = append(setups, took)
	}
	r.setE2E("setup_s", median(setups), "s")

	logf("label: %s, %d flows per call, %.0fs", engines[0].design, workers, r.seconds)
	if err := labelPass(engines, inputs, workers, budget, nil, nil); err != nil {
		return err
	}
	for _, le := range engines {
		rate := float64(len(le.flows)) / le.busy.Seconds()
		r.attempted += int64(len(le.flows))
		r.setReport("label_flows_per_s."+le.design, rate, "1/s")
		r.setReport("label_call_p50_ms."+le.design, median(le.lat), "ms")
		r.setReport("label_cpu_ms_per_flow."+le.design, le.cpuPerFlow(), "ms")
		r.setReport("label_call_p99_ms."+le.design, tail(le.lat), "ms")
		fmt.Printf("digest %s seed=%d flows=%d %s\n", le.design, r.seed, len(le.flows), qorDigest(le.flows, le.qors))
	}
	r.setE2E("cpu_ms_per_op", engines[0].cpuPerFlow(), "ms")
	checkDirect(r, engines, 1)
	if !r.traced {
		return nil
	}

	// Traced pass: every design on fresh engines, with spans and
	// allocation counts around every EvaluateAll call, then a
	// pass-by-pass replay of a sample of the labeled flows.
	r.tr = newTracer()
	defer r.writeTrace()
	inputs = labelInputs(space, r.seed, labelFlowsPerDesign, len(labelDesigns))
	traced, err := newLabelEngines(space, workers, len(labelDesigns))
	if err != nil {
		return err
	}
	mem := newMemTally()
	if err := labelPass(traced, inputs, workers, budget, r.tr, mem); err != nil {
		return err
	}
	mem.report(r)
	var tracedRates []float64
	var memo []synth.MemoStats
	for _, le := range traced {
		tracedRates = append(tracedRates, float64(len(le.flows))/le.busy.Seconds())
		memo = append(memo, le.memo)
	}
	reportMemo(r, memo)
	self := r.tr.selfTimes()
	r.setLayer("synth.evaluate_all.s", self["synth.evaluate_all"].PerCall(time.Second), "s")
	r.setLayer("trace.overhead_ratio", r.tr.overheadRatio(), "ratio")
	for i, le := range traced {
		r.setLayer("label_flows_per_s."+le.design, tracedRates[i], "1/s")
	}

	rt := &replayTally{ands: map[string]float64{}, calls: map[string]int{}}
	rng := rand.New(rand.NewSource(r.seed*17 + 3))
	for _, le := range traced {
		i := rng.Intn(len(le.flows))
		q, err := replayFlow(r.tr, le.eng, le.flows[i], fmt.Sprintf("replay/%s/%d", le.design, i), rt)
		r.attempted++
		if err != nil {
			r.failed++
			r.fail("%s: replay: %v", le.design, err)
			continue
		}
		if q != le.qors[i] {
			r.fail("%s: replayed QoR %+v != memo QoR %+v", le.design, q, le.qors[i])
		}
	}
	reportReplay(r, rt)
	return nil
}
