package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"flowgen/internal/circuits"
	"flowgen/internal/core"
	"flowgen/internal/flow"
	"flowgen/internal/label"
	"flowgen/internal/nn"
	"flowgen/internal/opt"
	"flowgen/internal/synth"
	"flowgen/internal/train"
)

// developDesign and developM fix the develop workload's space: alu8 in
// the m=1 space (L=6, 720 flows), small enough that prefixes are shared
// and the engine's caches carry across rounds.
const (
	developDesign = "alu8"
	developM      = 1
)

// developSteps is the CNN steps per (re)training round, raised from
// the default 400 so training takes a visible share of a develop run.
const developSteps = 1200

// developConfig is the framework configuration of one develop run.
func developConfig(seed int64, steps int) core.Config {
	space := flow.NewSpace(flow.DefaultAlphabet, developM)
	cfg := core.DefaultConfig(space)
	cfg.Seed = seed
	cfg.StepsPerRound = steps
	// The m=1 space holds 720 flows: the pool is every flow not used
	// for training.
	n := int(space.Count().Int64())
	cfg.SampleFlows = n - cfg.TrainFlows
	return cfg
}

// developOutcome is one develop run's result.
type developOutcome struct {
	fw       *core.Framework
	res      *core.Result
	wall     time.Duration
	cpu      time.Duration // process CPU time of the run
	accuracy float64
}

// newDevelopFramework builds the design, a fresh engine and the
// framework: the work set-up pays.
func newDevelopFramework(cfg core.Config) (*core.Framework, error) {
	d, err := circuits.ByName(developDesign)
	if err != nil {
		return nil, err
	}
	eng := synth.NewEngine(d.Build(), cfg.Space)
	eng.Workers = runtime.NumCPU()
	return core.New(cfg, eng)
}

// developOnce runs the framework and its accuracy evaluation, and
// checks the angel/devil selection.
func developOnce(r *run, fw *core.Framework, trace string) (*developOutcome, error) {
	_, end := r.tr.start("core.run", 0, trace)
	c0 := cpuTime()
	t0 := time.Now()
	res, err := fw.Run(nil)
	wall := time.Since(t0)
	cpu := cpuTime() - c0
	end()
	if err != nil {
		return nil, err
	}
	_, end = r.tr.start("core.accuracy", 0, trace)
	acc, err := fw.Accuracy(res)
	end()
	if err != nil {
		return nil, err
	}
	checkSelection(r, res, fw.Cfg.NumOut)
	return &developOutcome{fw: fw, res: res, wall: wall, cpu: cpu, accuracy: acc}, nil
}

// checkSelection verifies exactly NumOut angels and NumOut devils, with
// no flow in both lists.
func checkSelection(r *run, res *core.Result, numOut int) {
	r.attempted++
	if len(res.Angels) != numOut || len(res.Devils) != numOut {
		r.fail("develop: %d angels and %d devils, want %d each", len(res.Angels), len(res.Devils), numOut)
		return
	}
	seen := map[string]bool{}
	for _, a := range res.Angels {
		seen[a.Flow.Key()] = true
	}
	for _, d := range res.Devils {
		if seen[d.Flow.Key()] {
			r.fail("develop: flow %s is both an angel and a devil", d.Flow.Key())
			return
		}
	}
}

// developSummary is what a develop run leaves behind once its framework
// is released, so no run's engine inflates a later run's memory.
type developSummary struct {
	seed      int64
	wall      time.Duration
	cpu       time.Duration
	accuracy  float64
	selected  int    // angels plus devils
	selection string // digest of the angel and devil flow keys
	collect   time.Duration
	train     time.Duration
}

// developMinRuns is the fewest develop runs a pass makes. One develop
// run takes about half of a 25 s budget on a 2-core host, so a pass
// whose run count followed the budget alone would flip between one and
// two runs, and between one and two seeds, as the host's speed drifts.
const developMinRuns = 2

// developPass runs develop repetitions with derived seeds until the
// budget is spent (always at least developMinRuns), each on a fresh
// framework whose set-up time is recorded.
func developPass(r *run, steps int, budget time.Duration, setups *[]float64) ([]developSummary, error) {
	var outs []developSummary
	start := time.Now()
	for rep := 0; ; rep++ {
		// Start another run while it would end within half a run of
		// the budget.
		if rep >= developMinRuns {
			last := outs[len(outs)-1].wall
			if time.Since(start)+last/2 > budget {
				return outs, nil
			}
		}
		var fw *core.Framework
		took, err := timeSetup(func() (err error) {
			fw, err = newDevelopFramework(developConfig(r.seed*1000+int64(rep), steps))
			return err
		})
		if err != nil {
			return nil, err
		}
		if setups != nil {
			*setups = append(*setups, took)
		}
		o, err := developOnce(r, fw, fmt.Sprintf("develop/%d", rep))
		if err != nil {
			return nil, err
		}
		sum := developSummary{seed: fw.Cfg.Seed, wall: o.wall, cpu: o.cpu, accuracy: o.accuracy,
			selected: len(o.res.Angels) + len(o.res.Devils), selection: selectionDigest(o.res)}
		for _, rs := range o.res.Rounds {
			sum.collect += rs.Collect
			sum.train += rs.TrainTime
		}
		outs = append(outs, sum)
	}
}

// runDevelop is the `develop` workload: core.Framework.Run followed by
// Framework.Accuracy on alu8 in the m=1 space.
func runDevelop(r *run) error {
	budget := time.Duration(r.seconds * float64(time.Second))
	var setups []float64
	// Extra set-ups: one develop set-up takes about 2 ms, so the median
	// needs many samples to be steady.
	for len(setups) < 3*setupReps {
		took, err := timeSetup(func() error {
			_, err := newDevelopFramework(developConfig(r.seed, developSteps))
			return err
		})
		if err != nil {
			return err
		}
		setups = append(setups, took)
	}
	outs, err := developPass(r, developSteps, budget, &setups)
	if err != nil {
		return err
	}
	r.setE2E("setup_s", median(setups), "s")
	var walls, cpus, collects, trains []float64
	correct, total := 0.0, 0.0
	for _, o := range outs {
		walls = append(walls, seconds(o.wall))
		cpus = append(cpus, seconds(o.cpu))
		collects = append(collects, seconds(o.collect))
		trains = append(trains, seconds(o.train))
		correct += o.accuracy * float64(o.selected)
		total += float64(o.selected)
	}
	accuracy := correct / total
	r.setE2E("cpu_ms_per_op", median(cpus)*1000, "ms")
	r.setReport("develop_s_max", tail(walls), "s")
	r.setReport("develop_s", median(walls), "s")
	r.setReport("develop_accuracy", accuracy, "ratio")
	r.setReport("develop_runs", float64(len(walls)), "count")
	r.setReport("develop_collect_s", median(collects), "s")
	r.setReport("develop_train_s", median(trains), "s")
	for i, o := range outs {
		fmt.Printf("develop rep=%d seed=%d wall_s=%.3f accuracy=%.4f angels=%s\n", i, o.seed,
			o.wall.Seconds(), o.accuracy, o.selection)
	}
	if !r.traced {
		return nil
	}

	// Traced pass: one develop run with spans, then replays of the
	// layer calls the framework makes internally.
	r.tr = newTracer()
	defer r.writeTrace()
	fw, err := newDevelopFramework(developConfig(r.seed*1000, developSteps))
	if err != nil {
		return err
	}
	o, err := developOnce(r, fw, "develop/traced")
	if err != nil {
		return err
	}
	r.setLayer("trace.overhead_ratio", r.tr.overheadRatio(), "ratio")
	r.setLayer("develop_s", seconds(o.wall), "s")
	r.setLayer("develop_accuracy", o.accuracy, "ratio")
	return developLayers(r, o)
}

// developLayers replays the layer calls of a finished develop run with
// spans and records the per-layer metrics.
func developLayers(r *run, o *developOutcome) error {
	res, fw, cfg := o.res, o.fw, o.fw.Cfg
	var collect, trainTime time.Duration
	for _, rs := range res.Rounds {
		collect += rs.Collect
		trainTime += rs.TrainTime
	}
	r.setLayer("core.collect.s", seconds(collect), "s")
	r.setLayer("train.round.s", seconds(trainTime), "s")
	reportMemo(r, []synth.MemoStats{res.Memo})

	// label: refit the determinators on the run's QoRs.
	for i := 0; i < 20; i++ {
		_, end := r.tr.start("label.fit", 0, "develop/replay")
		_, err := label.Fit(res.TrainQoRs, cfg.Metrics, cfg.Percentiles)
		end()
		if err != nil {
			return err
		}
	}
	model, err := label.Fit(res.TrainQoRs, cfg.Metrics, cfg.Percentiles)
	if err != nil {
		return err
	}

	// train: steps on the run's final dataset with a fresh network.
	ds := &train.Dataset{H: cfg.EncodeH, W: cfg.EncodeW, NumCl: model.NumClasses()}
	for i, f := range res.TrainFlows {
		ds.Add(f.Encode(cfg.Space, cfg.EncodeH, cfg.EncodeW), model.Class(res.TrainQoRs[i]))
	}
	o2, err := opt.ByName(cfg.Optimizer, cfg.LearnRate)
	if err != nil {
		return err
	}
	tn := train.NewTrainer(cfg.Arch.Build(cfg.Seed+1), o2, cfg.Seed+2)
	tn.SetData(ds)
	for i := 0; i < 200; i++ {
		_, end := r.tr.start("train.step", 0, "develop/replay")
		_, err := tn.Step()
		end()
		if err != nil {
			return err
		}
	}

	// nn and core: compile the trained network, score the pool, select.
	pool := fw.GeneratePool(res.TrainFlows)
	var pred nn.Predictor
	for i := 0; i < 5; i++ {
		_, end := r.tr.start("nn.compile", 0, "develop/replay")
		pred, err = nn.NewPredictor(res.Net, cfg.Precision, cfg.EncodeH, cfg.EncodeW)
		end()
		if err != nil {
			return err
		}
	}
	var probs [][]float64
	for i := 0; i < 5; i++ {
		_, end := r.tr.start("nn.predict_stream", 0, "develop/replay")
		probs, err = pred.PredictStream(context.Background(), len(pool), 0, core.FlowSource(cfg.Space, pool, cfg.EncodeH, cfg.EncodeW))
		end()
		if err != nil {
			return err
		}
	}
	scored := core.ScoreFlows(pool, probs)
	for i := 0; i < 20; i++ {
		_, end := r.tr.start("core.select", 0, "develop/replay")
		core.SelectFlows(scored, model.NumClasses(), cfg.NumOut)
		end()
	}

	// rewrite and techmap: pass-by-pass replay of a sample of the
	// training flows on the run's engine.
	rt := &replayTally{ands: map[string]float64{}, calls: map[string]int{}}
	rng := rand.New(rand.NewSource(r.seed*13 + 1))
	for k := 0; k < 8; k++ {
		i := rng.Intn(len(res.TrainFlows))
		q, err := replayFlow(r.tr, fw.Engine, res.TrainFlows[i], fmt.Sprintf("replay/%d", i), rt)
		r.attempted++
		if err != nil {
			r.failed++
			r.fail("develop: replay: %v", err)
			continue
		}
		if q != res.TrainQoRs[i] {
			r.fail("develop: replayed QoR %+v != memo QoR %+v", q, res.TrainQoRs[i])
		}
	}
	reportReplay(r, rt)

	self := r.tr.selfTimes()
	r.setLayer("label.fit.ms", self["label.fit"].PerCall(time.Millisecond), "ms")
	r.setLayer("train.step.ms", self["train.step"].PerCall(time.Millisecond), "ms")
	r.setLayer("nn.compile.ms", self["nn.compile"].PerCall(time.Millisecond), "ms")
	r.setLayer("nn.predict.us_per_flow", self["nn.predict_stream"].PerCall(time.Microsecond)/float64(len(pool)), "us")
	r.setLayer("core.select.ms", self["core.select"].PerCall(time.Millisecond), "ms")
	return nil
}

// selectionDigest hashes the angel and devil flow keys in order.
func selectionDigest(res *core.Result) string {
	var flows []flow.Flow
	var qors []synth.QoR
	for _, s := range append(append([]core.ScoredFlow{}, res.Angels...), res.Devils...) {
		flows = append(flows, s.Flow)
		qors = append(qors, synth.QoR{})
	}
	return qorDigest(flows, qors)
}
