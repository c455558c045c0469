package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"flowgen/internal/circuits"
	"flowgen/internal/flow"
	"flowgen/internal/loop"
	"flowgen/internal/obs"
	"flowgen/internal/serve"
	"flowgen/internal/synth"
)

// serve_loop settings: the loop labels alu8 with one worker, in small
// batches so the corpus grows smoothly, and retrains often enough that
// several rounds finish per run.
const (
	loopDesign       = "alu8"
	loopWriteRate    = 2.0 // POST /v1/label writes per second
	loopRetrainEvery = 10
	loopSteps        = 200
	loopLabelBatch   = 4
	// loopQueueCap bounds the candidate queue to two labeling batches:
	// observed flows beyond it are dropped (and counted), and a drain
	// finishes within a few seconds.
	loopQueueCap = 2 * loopLabelBatch
	loopPoll     = 50 * time.Millisecond
)

// labelWrite is one ground-truth label the generator submits.
type labelWrite struct {
	text string
	q    synth.QoR
}

// loopEnv is a served model with a loop attached and its ground truth.
type loopEnv struct {
	*serveEnv
	lp      *loop.Loop
	journal string
	writes  []labelWrite
}

// newLoopEnv sets up a server, labels `gt` on a fresh engine for the
// ground-truth writes, and attaches a loop over a fresh engine and an
// empty journal. The loop is not started.
func newLoopEnv(r *run, space flow.Space, gt []flow.Flow, rep int) (*loopEnv, error) {
	env, err := newServeEnv(r.seed, space)
	if err != nil {
		return nil, err
	}
	d, err := circuits.ByName(loopDesign)
	if err != nil {
		env.close()
		return nil, err
	}
	truth := synth.NewEngine(d.Build(), space)
	truth.Workers = runtime.NumCPU()
	qs, err := truth.EvaluateAll(gt, nil)
	if err != nil {
		env.close()
		return nil, err
	}
	le := &loopEnv{serveEnv: env, journal: filepath.Join(r.workDir, fmt.Sprintf("journal-%d.labels", rep))}
	for i, f := range gt {
		le.writes = append(le.writes, labelWrite{text: f.String(space), q: qs[i]})
	}
	le.lp, err = loop.New(env.reg, synth.NewEngine(d.Build(), space), loop.Config{
		ModelName:     serveModelName,
		LabelWorkers:  1,
		LabelBatch:    loopLabelBatch,
		QueueCap:      loopQueueCap,
		RetrainEvery:  loopRetrainEvery,
		StepsPerRound: loopSteps,
		Seed:          r.seed,
		JournalPath:   le.journal,
		Obs:           env.srv.Obs(),
	})
	if err != nil {
		env.close()
		return nil, err
	}
	env.srv.SetLoop(le.lp)
	return le, nil
}

// loopSample is one poll of /v1/loop/status.
type loopSample struct {
	at time.Time
	st loop.Status
}

// monitor polls the loop status and captures every published model
// snapshot (confirmed on /v1/models/{name}) until stopped.
type monitor struct {
	samples []loopSample
	snaps   map[int]*serve.Model
	errs    []string
	stop    chan struct{}
	done    chan struct{}
}

func startMonitor(c *client, reg *serve.Registry) *monitor {
	m := &monitor{snaps: map[int]*serve.Model{}, stop: make(chan struct{}), done: make(chan struct{})}
	if cur, err := reg.Get(serveModelName); err == nil {
		m.snaps[cur.Version] = cur
	}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(loopPoll)
		defer tick.Stop()
		published := int64(0)
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
			var st loop.Status
			if err := c.getJSON("/v1/loop/status", &st); err != nil {
				m.errs = append(m.errs, err.Error())
				continue
			}
			m.samples = append(m.samples, loopSample{at: time.Now(), st: st})
			if cur, err := reg.Get(serveModelName); err == nil {
				m.snaps[cur.Version] = cur
			}
			if st.Published > published {
				published = st.Published
				var info serve.ModelInfo
				if err := c.getJSON("/v1/models/"+serveModelName, &info); err != nil {
					m.errs = append(m.errs, err.Error())
				} else if info.Version < st.LastPublishVersion {
					m.errs = append(m.errs, fmt.Sprintf("/v1/models shows version %d after publish of %d", info.Version, st.LastPublishVersion))
				}
			}
		}
	}()
	return m
}

func (m *monitor) finish() {
	close(m.stop)
	<-m.done
}

// timeToModel returns, per finished retrain round, the time from the
// ack of the label that crossed the retrain trigger to the poll that saw
// the round end. A round's trigger is crossed once the corpus has grown
// by RetrainEvery since the previous round started.
func timeToModel(samples []loopSample, acks []outcome) []float64 {
	var out []float64
	retrains, ends := int64(0), int64(0)
	startSize := 0
	var pending []time.Time // crossing times of started, unfinished rounds
	crossed := false
	var crossAt time.Time
	for _, s := range samples {
		if !crossed && s.st.DatasetSize >= startSize+loopRetrainEvery {
			crossed, crossAt = true, s.at
			// A label write acknowledged before this poll may have
			// crossed the threshold: take the earliest such ack.
			for _, a := range acks {
				if a.ok && a.size >= startSize+loopRetrainEvery && a.doneAt.Before(crossAt) {
					crossAt = a.doneAt
				}
			}
		}
		for retrains < s.st.Retrains {
			retrains++
			if !crossed {
				crossAt = s.at
			}
			pending = append(pending, crossAt)
			crossed = false
			startSize = s.st.DatasetSize
		}
		for ends < s.st.Published+s.st.Rejected && len(pending) > 0 {
			ends++
			out = append(out, s.at.Sub(pending[0]).Seconds())
			pending = pending[1:]
		}
	}
	return out
}

// metricsValue reads one series from a Prometheus text exposition.
func metricsValue(text []byte, name string) float64 {
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == name {
			v, _ := strconv.ParseFloat(f[1], 64)
			return v
		}
	}
	return 0
}

// corpusRate is the corpus growth per second the monitor saw: the
// growth from its first poll to the poll that first saw the final size,
// over the time between them. The corpus grows in labeling batches, so
// dividing the final size by the whole phase would round the rate down
// by up to a batch; with fewer than two polls it returns whole.
func corpusRate(samples []loopSample, whole float64) float64 {
	if len(samples) < 2 {
		return whole
	}
	first, last := samples[0], samples[len(samples)-1]
	for _, s := range samples {
		if s.st.DatasetSize == last.st.DatasetSize {
			last = s
			break
		}
	}
	if !last.at.After(first.at) {
		return whole
	}
	return float64(last.st.DatasetSize-first.st.DatasetSize) / last.at.Sub(first.at).Seconds()
}

// labelOps schedules the label writes at a fixed rate.
func labelOps(writes []labelWrite, rate float64) []op {
	ops := make([]op, len(writes))
	for i, w := range writes {
		ops[i].due = time.Duration((float64(i) + 0.5) / rate * float64(time.Second))
		ops[i].kind = opLabel
		ops[i].gt = i
		ops[i].body, _ = json.Marshal(map[string]any{"flow": w.text, "area": w.q.Area, "delay": w.q.Delay,
			"gates": w.q.Gates, "ands": w.q.Ands, "levels": w.q.Levels})
	}
	return ops
}

// loopPass is one serve_loop measurement.
type loopPass struct {
	ph       *phase
	mon      *monitor
	ttm      []float64
	labelsPS float64
	// cpuPerLabel is the phase's process CPU milliseconds per label in
	// the corpus when the phase ended.
	cpuPerLabel float64
	final       loop.Status
	retrainS    float64
	stepMs      float64
	queuedMax   int
}

// runLoopPass starts the loop, runs the read mix plus label writes,
// drains the loop, and checks the journal replays exactly the accepted
// labels.
func runLoopPass(r *run, le *loopEnv, tr *tracer) (*loopPass, error) {
	space := le.space
	c := newClient(le.base, tr, space)
	defer c.close()
	dur := time.Duration(r.seconds * float64(time.Second))
	rng := rand.New(rand.NewSource(r.seed*2003 + 7))
	ops := append(readOps(rng, le.keys, readRate, dur), labelOps(le.writes, loopWriteRate)...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })

	stepHist := obs.Default().DurationHistogram("flowgen_train_step_duration_seconds",
		"Wall time of one mini-batch training step (forward + backward + update).")
	steps0, stepSum0 := stepHist.Count(), stepHist.Sum()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		le.lp.Run(ctx)
	}()
	stopLoop := func() {
		cancel()
		wg.Wait()
	}
	mon := startMonitor(c, le.reg)
	c0 := cpuTime()
	ph := c.runPhase("loop", ops)
	cpu := cpuTime() - c0
	mon.finish()
	lp := &loopPass{ph: ph, mon: mon}

	var st loop.Status
	if err := c.getJSON("/v1/loop/status", &st); err != nil {
		stopLoop()
		return nil, err
	}
	lp.labelsPS = corpusRate(mon.samples, float64(st.DatasetSize)/ph.wall.Seconds())
	lp.cpuPerLabel = millis(cpu) / float64(max(st.DatasetSize, 1))
	for _, s := range mon.samples {
		lp.queuedMax = max(lp.queuedMax, s.st.Queued)
	}
	if text, err := c.do(context.Background(), "GET", "/metrics", nil, ""); err == nil {
		if n := metricsValue(text, "flowgen_loop_retrain_duration_seconds_count"); n > 0 {
			lp.retrainS = metricsValue(text, "flowgen_loop_retrain_duration_seconds_sum") / n
		}
	}
	if n := stepHist.Count() - steps0; n > 0 {
		lp.stepMs = float64(stepHist.Sum()-stepSum0) / float64(n) / 1e6
	}
	var acks []outcome
	for i, o := range ph.outs {
		if ph.ops[i].kind == opLabel {
			acks = append(acks, o)
		}
	}
	lp.ttm = timeToModel(mon.samples, acks)

	// Drain through the endpoint, stop the loop, then replay the
	// journal and compare it with the accepted labels.
	data, err := c.do(context.Background(), "POST", "/v1/loop/drain", []byte("{}"), "")
	stopLoop()
	flows, qors := le.lp.Store().Snapshot()
	if cerr := le.lp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	var dr loop.DrainResult
	if err := json.Unmarshal(data, &dr); err != nil {
		return nil, err
	}
	if err := c.getJSON("/v1/loop/status", &lp.final); err != nil {
		return nil, err
	}
	r.attempted++
	if !dr.Drained || !dr.JournalSynced {
		r.fail("serve_loop: drain reported %+v", dr)
	}
	checkJournal(r, le, flows, qors, ph)
	for _, msg := range mon.errs {
		r.fail("serve_loop monitor: %s", msg)
	}
	return lp, nil
}

// checkJournal reopens the journal with loop.OpenStore and checks it
// replays exactly the corpus the loop accepted, including every label
// write the server acknowledged as accepted.
func checkJournal(r *run, le *loopEnv, flows []flow.Flow, qors []synth.QoR, ph *phase) {
	st, err := loop.OpenStore(le.journal)
	if err != nil {
		r.fail("serve_loop: reopening journal: %v", err)
		return
	}
	defer st.Close()
	rf, rq := st.Snapshot()
	if len(rf) != len(flows) {
		r.fail("serve_loop: journal replays %d labels, loop accepted %d", len(rf), len(flows))
		return
	}
	byKey := map[string]synth.QoR{}
	for i, f := range rf {
		if f.Key() != flows[i].Key() || rq[i] != qors[i] {
			r.fail("serve_loop: journal record %d differs from the accepted label", i)
			return
		}
		byKey[f.Key()] = rq[i]
	}
	for i, o := range ph.outs {
		if ph.ops[i].kind != opLabel || !o.ok || !o.accepted {
			continue
		}
		w := le.writes[ph.ops[i].gt]
		f, err := le.space.Parse(w.text)
		if err != nil {
			r.fail("serve_loop: %v", err)
			continue
		}
		if q, ok := byKey[f.Key()]; !ok || q != w.q {
			r.fail("serve_loop: accepted label %q missing from the journal replay", w.text)
		}
	}
}

// loopSetupReps is how many times serve_loop repeats its set-up, each
// repetition labeling its share of the ground-truth writes.
const loopSetupReps = 3

// loopSetups sets up serve_loop loopSetupReps times, each labeling a
// third of the ground-truth writes on a fresh engine; the last set-up
// serves with all of them.
func loopSetups(r *run, space flow.Space) (*loopEnv, error) {
	n := int(loopWriteRate*r.seconds) + 1
	gt := space.RandomUnique(rand.New(rand.NewSource(r.seed*6007+3)), n)
	var setups []float64
	var writes []labelWrite
	var env *loopEnv
	for i := 0; i < loopSetupReps; i++ {
		var e *loopEnv
		took, err := timeSetup(func() (err error) {
			e, err = newLoopEnv(r, space, gt[i*n/loopSetupReps:(i+1)*n/loopSetupReps], i)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, took)
		writes = append(writes, e.writes...)
		if env != nil {
			env.lp.Close()
			env.close()
		}
		env = e
	}
	env.writes = writes
	r.setE2E("setup_s", median(setups), "s")
	return env, nil
}

// runServeLoop is the `serve_loop` workload: the serve read mix at one
// rate plus ground-truth label writes, with a loop labeling, retraining
// and publishing beside serving.
func runServeLoop(r *run) error {
	space := flow.PaperSpace()
	le, err := loopSetups(r, space)
	if err != nil {
		return err
	}
	lp, err := runLoopPass(r, le, nil)
	le.close()
	if err != nil {
		return err
	}
	r.account(lp.ph)
	checkPredictSample(r, lp.ph, lp.mon.snaps, 10)
	s := lp.ph.stats()
	r.setE2E("cpu_ms_per_op", lp.cpuPerLabel, "ms")
	r.setReport("predict_p50_ms", median(s.lat[opPredict]), "ms")
	r.setReport("predict_p99_ms", tail(s.lat[opPredict]), "ms")
	r.setReport("recommend_p50_ms", median(s.lat[opRecommend]), "ms")
	r.setReport("recommend_p99_ms", tail(s.lat[opRecommend]), "ms")
	r.setReport("predict_samples", float64(len(s.lat[opPredict])), "count")
	r.setReport("loop_labels_per_s", lp.labelsPS, "1/s")
	r.setReport("label_ack_p99_ms", tail(s.lat[opLabel]), "ms")
	r.setReport("label_ack_p50_ms", median(s.lat[opLabel]), "ms")
	r.setReport("time_to_model_s", median(lp.ttm), "s")
	r.setReport("loop_rounds", float64(len(lp.ttm)), "count")
	logf("serve_loop: sent %d ok %d, corpus %d, retrains %d (published %d, rejected %d), time to model %v",
		s.sent, s.okay, lp.final.DatasetSize, lp.final.Retrains, lp.final.Published, lp.final.Rejected, lp.ttm)
	if len(lp.ttm) == 0 {
		r.fail("serve_loop: no retrain round finished during the run")
	}
	if !r.traced {
		return nil
	}

	r.tr = newTracer()
	defer r.writeTrace()
	r.workDir = filepath.Join(r.workDir, "traced")
	if err := os.MkdirAll(r.workDir, 0o755); err != nil {
		return err
	}
	tle, err := loopSetups(r, space)
	if err != nil {
		return err
	}
	tp, err := runLoopPass(r, tle, r.tr)
	if err != nil {
		tle.close()
		return err
	}
	r.account(tp.ph)
	c := newClient(tle.base, nil, space)
	err = reportServerStats(r, c)
	c.close()
	if err == nil {
		err = replayServeLayers(r, tle.serveEnv)
	}
	tle.close()
	if err != nil {
		return err
	}
	ts := tp.ph.stats()
	reportGen(r, tp.ph)
	f := tp.final
	r.setLayer("loop.retrain.s", tp.retrainS, "s")
	r.setLayer("loop.retrains", float64(f.Retrains), "count")
	r.setLayer("loop.published", float64(f.Published), "count")
	r.setLayer("loop.rejected", float64(f.Rejected), "count")
	r.setLayer("loop.publish_ratio", ratio(f.Published, f.Published+f.Rejected), "ratio")
	r.setLayer("loop.labeled", float64(f.Labeled), "count")
	r.setLayer("loop.observed", float64(f.Observed), "count")
	r.setLayer("loop.dropped", float64(f.Dropped), "count")
	r.setLayer("loop.drop_ratio", ratio(f.Dropped, f.Observed), "ratio")
	r.setLayer("loop.queued.max", float64(tp.queuedMax), "count")
	r.setLayer("train.step.ms", tp.stepMs, "ms")
	r.setLayer("train.round.s", tp.stepMs*loopSteps/1000, "s")
	r.setLayer("predict_p50_ms", median(ts.lat[opPredict]), "ms")
	r.setLayer("predict_p99_ms", tail(ts.lat[opPredict]), "ms")
	r.setLayer("recommend_p50_ms", median(ts.lat[opRecommend]), "ms")
	r.setLayer("recommend_p99_ms", tail(ts.lat[opRecommend]), "ms")
	r.setLayer("label_ack_p99_ms", tail(ts.lat[opLabel]), "ms")
	r.setLayer("time_to_model_s", median(tp.ttm), "s")
	r.setLayer("loop_labels_per_s", tp.labelsPS, "1/s")
	r.setLayer("trace.overhead_ratio", r.tr.overheadRatio(), "ratio")
	return storeAddReplay(r, tle.writes, space)
}

// storeAddReplay times Store.Add on a fresh journal with the run's
// ground-truth labels.
func storeAddReplay(r *run, writes []labelWrite, space flow.Space) error {
	st, err := loop.OpenStore(filepath.Join(r.workDir, "replay.labels"))
	if err != nil {
		return err
	}
	for i, w := range writes {
		f, err := space.Parse(w.text)
		if err != nil {
			st.Close()
			return err
		}
		_, end := r.tr.start("loop.store_add", 0, fmt.Sprintf("store/%d", i))
		_, err = st.Add(f, w.q)
		end()
		if err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	r.setLayer("loop.store_add.us", r.tr.selfTimes()["loop.store_add"].PerCall(time.Microsecond), "us")
	return nil
}
