package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"flowgen/internal/flow"
	"flowgen/internal/label"
	"flowgen/internal/loop"
	"flowgen/internal/serve"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// lists the benchmark prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, e2eMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
}

// TestLabelRepeatsExactly runs one tiny label pass twice on fresh
// engines: the QoR digest must repeat bit for bit (the memo counters
// need not).
func TestLabelRepeatsExactly(t *testing.T) {
	space := flow.PaperSpace()
	inputs := labelInputs(space, 3, 4, 1)
	digest := func() string {
		engines, err := newLabelEngines(space, runtime.NumCPU(), 1) // alu8 keeps the test short
		if err != nil {
			t.Fatal(err)
		}
		// A zero budget runs exactly one call per design.
		if err := labelPass(engines, inputs, 2, 0, nil, nil); err != nil {
			t.Fatal(err)
		}
		return qorDigest(engines[0].flows, engines[0].qors)
	}
	if a, b := digest(), digest(); a != b {
		t.Fatalf("QoR digest %s then %s for one seed", a, b)
	}
}

// TestDevelopRepeatsExactly runs a tiny develop twice with one seed:
// accuracy and the angel/devil flow keys must repeat exactly.
func TestDevelopRepeatsExactly(t *testing.T) {
	once := func() (float64, string) {
		cfg := developConfig(5, 30)
		cfg.TrainFlows, cfg.InitialLabeled, cfg.RetrainEvery, cfg.NumOut = 60, 30, 30, 4
		cfg.SampleFlows = 100
		fw, err := newDevelopFramework(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := &run{e2e: map[string]metric{}, layer: map[string]metric{}, report: map[string]metric{}}
		o, err := developOnce(r, fw, "test")
		if err != nil {
			t.Fatal(err)
		}
		if len(r.problems) > 0 {
			t.Fatal(r.problems)
		}
		return o.accuracy, selectionDigest(o.res)
	}
	acc1, sel1 := once()
	acc2, sel2 := once()
	if acc1 != acc2 || sel1 != sel2 {
		t.Fatalf("develop gave accuracy %v flows %s, then %v flows %s", acc1, sel1, acc2, sel2)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{2000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {100, 0.90}, {40, 0.75}, {20, 0.50}, {19, 1}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120},
	}}
	self := tr.selfTimes()
	if got := self["parent"].SelfNs; got != 40 {
		t.Errorf("parent self time %v, want 40", got)
	}
	if got := self["child"]; got.Calls != 3 || got.SelfNs != 90 {
		t.Errorf("child %+v, want 3 calls and 90 ns", got)
	}
}

func TestCheckScore(t *testing.T) {
	n := len(label.DefaultPercentiles) + 1
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = 1 / float64(n)
	}
	probs[0] += 0.01
	probs[1] -= 0.01
	good := serve.FlowScore{Flow: "f", Class: 0, Confidence: probs[0], Probs: probs}
	if err := checkScore(good, "f"); err != nil {
		t.Errorf("well-formed score rejected: %v", err)
	}
	bad := good
	bad.Class = 1
	if checkScore(bad, "f") == nil {
		t.Error("a class that is not the argmax was accepted")
	}
	if checkScore(good, "g") == nil {
		t.Error("an answer for another flow was accepted")
	}
}

// TestTimeToModel follows one round: the trigger is crossed by a label
// write acknowledged between two polls, and the round ends later.
func TestTimeToModel(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	samples := []loopSample{
		{at: at(0), st: loop.Status{DatasetSize: 5}},
		{at: at(50), st: loop.Status{DatasetSize: loopRetrainEvery + 1}},
		{at: at(100), st: loop.Status{DatasetSize: loopRetrainEvery + 1, Retrains: 1}},
		{at: at(400), st: loop.Status{DatasetSize: loopRetrainEvery + 3, Retrains: 1, Published: 1}},
	}
	acks := []outcome{{ok: true, size: loopRetrainEvery, doneAt: at(30)}}
	got := timeToModel(samples, acks)
	if len(got) != 1 || got[0] != 0.37 {
		t.Fatalf("timeToModel = %v, want [0.37]", got)
	}
}

// TestCorpusRate stops the clock at the poll that first saw the final
// corpus size, not at the last poll.
func TestCorpusRate(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	samples := []loopSample{
		{at: at(0), st: loop.Status{DatasetSize: 2}},
		{at: at(500), st: loop.Status{DatasetSize: 6}},
		{at: at(1000), st: loop.Status{DatasetSize: 10}},
		{at: at(1500), st: loop.Status{DatasetSize: 10}},
	}
	if got := corpusRate(samples, 1); got != 8 {
		t.Fatalf("corpusRate = %v, want 8", got)
	}
	if got := corpusRate(samples[:1], 1); got != 1 {
		t.Fatalf("corpusRate with one poll = %v, want the whole-phase rate 1", got)
	}
}

// TestSendClassifiesFailures separates refused requests (failed) from
// well-delivered but malformed answers (a correctness failure).
func TestSendClassifiesFailures(t *testing.T) {
	var status int
	var body string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		w.Write([]byte(body))
	}))
	defer ts.Close()
	c := newClient(ts.URL, nil, flow.PaperSpace())
	defer c.close()
	o := op{kind: opPredict, flows: []string{"f"}, body: []byte(`{}`)}
	for _, tc := range []struct {
		status          int
		body            string
		fails, malforms bool
	}{
		{http.StatusServiceUnavailable, `{"error":{}}`, true, false},
		{http.StatusOK, `{"results":[]}`, true, true},
		{http.StatusOK, `not json`, true, true},
	} {
		status, body = tc.status, tc.body
		var out outcome
		err := c.send(o, "", &out)
		if (err != nil) != tc.fails || errors.As(err, new(malformedError)) != tc.malforms {
			t.Errorf("status %d body %q: err %v, want failure %v malformed %v", tc.status, tc.body, err, tc.fails, tc.malforms)
		}
	}
}
