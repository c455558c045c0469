package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"time"

	"flowgen/internal/core"
	"flowgen/internal/flow"
	"flowgen/internal/label"
	"flowgen/internal/nn"
	"flowgen/internal/serve"
)

// serveModelName is the registry name of the served model.
const serveModelName = "bench"

// Read mix: mostly single-flow predicts (the batcher path), some
// multi-flow predicts (the stream path) and recommendations over
// server-sampled pools.
const (
	mixMulti      = 0.07 // share of multi-flow predicts
	mixRecommend  = 0.08 // share of recommends; the rest are single-flow predicts
	multiFlows    = 8    // flows per multi-flow predict
	recommendPool = 128  // server-sampled pool per recommend
	recommendTopK = 10
	// keySetFactor sizes the predict key set relative to the scored-flow
	// cache, so both hits and misses occur.
	keySetFactor = 3
	zipfS        = 1.1 // key popularity skew
)

// readRate is the open-loop rate (requests per second) of serve_loop's
// read mix: low enough that 2 cores serve it beside the loop.
const readRate = 100

// op kinds.
const (
	opPredict = iota
	opPredictMulti
	opRecommend
	opLabel
	numOps
)

var opNames = [numOps]string{"predict", "predict_multi", "recommend", "label"}

// op is one scheduled request.
type op struct {
	due   time.Duration // offset from the phase start
	kind  int
	body  []byte
	flows []string // predict inputs
	gt    int      // ground-truth index of a label write
}

// outcome is what the generator saw for one op.
type outcome struct {
	late, latency time.Duration // sent−due and done−due
	ok            bool
	malformed     bool      // answered 200 with a response that fails validation
	version       int       // model version of a predict answer
	probs         []float64 // single-flow predict answer
	size          int       // dataset size acknowledged by a label write
	accepted      bool
	doneAt        time.Time
}

// serveEnv is one freshly set-up server on a loopback listener.
type serveEnv struct {
	reg    *serve.Registry
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan struct{} // closed when hs.Serve returns
	space  flow.Space
	keys   []string // predict key set
}

// newServeEnv bootstraps a seeded model, registers it (compiling its
// predictor), and starts serve.Server on a loopback listener.
func newServeEnv(seed int64, space flow.Space) (*serveEnv, error) {
	h, w := core.EncodeShape(space)
	arch := nn.FastArch(len(label.DefaultPercentiles) + 1)
	arch.InH, arch.InW = h, w
	reg := serve.NewRegistry()
	m := reg.Register(&serve.Model{Name: serveModelName, Space: space, Arch: arch, Net: arch.Build(seed)})
	if _, err := m.Predictor(); err != nil {
		return nil, err
	}
	cfg := serve.DefaultServerConfig()
	srv := serve.NewServer(reg, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &serveEnv{reg: reg, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), served: make(chan struct{}), space: space}
	go func() {
		defer close(e.served)
		e.hs.Serve(ln)
	}()
	rng := rand.New(rand.NewSource(seed*104729 + 11))
	for _, f := range space.RandomUnique(rng, keySetFactor*cfg.CacheSize) {
		e.keys = append(e.keys, f.String(space))
	}
	return e, nil
}

// close stops the listener, waits for the serve goroutine and closes
// the server's batchers.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	<-e.served
	e.srv.Close()
}

// readOps schedules the read mix as a Poisson process at `rate` for
// `dur`, drawing predict keys from a Zipf-skewed key set.
func readOps(rng *rand.Rand, keys []string, rate float64, dur time.Duration) []op {
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(keys)-1))
	var ops []op
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return ops
		}
		o := readOp(rng, zipf, keys)
		o.due = due
		ops = append(ops, o)
	}
}

// readOp draws one request of the read mix.
func readOp(rng *rand.Rand, zipf *rand.Zipf, keys []string) op {
	switch u := rng.Float64(); {
	case u < mixRecommend:
		o := op{kind: opRecommend}
		o.body, _ = json.Marshal(map[string]any{"model": serveModelName, "top_k": recommendTopK,
			"pool": recommendPool, "seed": rng.Int63n(1<<31) + 1})
		return o
	case u < mixRecommend+mixMulti:
		return multiOp(zipf, keys)
	default:
		o := op{kind: opPredict, flows: []string{keys[zipf.Uint64()]}}
		o.body, _ = json.Marshal(map[string]any{"model": serveModelName, "flows": o.flows})
		return o
	}
}

// multiOp draws a multi-flow predict of distinct Zipf-skewed keys.
func multiOp(zipf *rand.Zipf, keys []string) op {
	o := op{kind: opPredictMulti}
	seen := map[string]bool{}
	for len(o.flows) < multiFlows {
		k := keys[zipf.Uint64()]
		if !seen[k] {
			seen[k] = true
			o.flows = append(o.flows, k)
		}
	}
	o.body, _ = json.Marshal(map[string]any{"model": serveModelName, "flows": o.flows})
	return o
}

// client is the load generator: at most nproc connections, one sender
// goroutine per connection.
type client struct {
	http  *http.Client
	base  string
	conns int
	tr    *tracer
	space flow.Space
}

func newClient(base string, tr *tracer, space flow.Space) *client {
	conns := runtime.NumCPU()
	t := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, MaxIdleConns: conns,
		DisableCompression: true}
	return &client{http: &http.Client{Transport: t, Timeout: 30 * time.Second},
		base: base, conns: conns, tr: tr, space: space}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and returns the response body of a 200.
func (c *client) do(ctx context.Context, method, path string, body []byte, reqID string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &httpStatusError{fmt.Sprintf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))}
	}
	return data, nil
}

// httpStatusError is a response other than 200 OK.
type httpStatusError struct{ msg string }

func (e *httpStatusError) Error() string { return e.msg }

func (c *client) getJSON(path string, dst any) error {
	data, err := c.do(context.Background(), http.MethodGet, path, nil, "")
	if err != nil {
		return err
	}
	return json.Unmarshal(data, dst)
}

// phase is the result of running one schedule open-loop.
type phase struct {
	name     string
	ops      []op
	outs     []outcome
	problems []string
	wall     time.Duration
}

// runPhase sends ops on their schedule regardless of how fast answers
// come back; each request is timed from when it was due.
func (c *client) runPhase(name string, ops []op) *phase {
	p := &phase{name: name, ops: ops, outs: make([]outcome, len(ops))}
	queue := make(chan int, len(ops)) // sized to the number of sends
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := ops[i]
				sent := time.Now()
				out := outcome{late: sent.Sub(start) - o.due}
				reqID := fmt.Sprintf("%s-%d", name, i)
				_, end := c.tr.start("serve."+opNames[o.kind], 0, reqID)
				err := c.send(o, reqID, &out)
				end()
				out.doneAt = time.Now()
				out.latency = out.doneAt.Sub(start) - o.due
				out.ok = err == nil
				out.malformed = errors.As(err, new(malformedError))
				p.outs[i] = out
				if err != nil {
					mu.Lock()
					p.problems = append(p.problems, fmt.Sprintf("%s %s: %v", name, opNames[o.kind], err))
					mu.Unlock()
				}
			}
		}()
	}
	for i, o := range ops {
		if d := time.Until(start.Add(o.due)); d > 0 {
			time.Sleep(d)
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

// malformedError marks a 200 response that fails validation: a
// correctness failure, unlike a refused or timed-out request.
type malformedError struct{ error }

// send issues one op and validates its response.
func (c *client) send(o op, reqID string, out *outcome) error {
	err := c.sendOp(o, reqID, out)
	var uerr *url.Error
	var herr *httpStatusError
	if err != nil && !errors.As(err, &uerr) && !errors.As(err, &herr) {
		err = malformedError{err}
	}
	return err
}

func (c *client) sendOp(o op, reqID string, out *outcome) error {
	ctx := context.Background()
	switch o.kind {
	case opPredict, opPredictMulti:
		data, err := c.do(ctx, http.MethodPost, "/v1/predict", o.body, reqID)
		if err != nil {
			return err
		}
		var resp struct {
			Version int               `json:"version"`
			Results []serve.FlowScore `json:"results"`
		}
		if err := json.Unmarshal(data, &resp); err != nil {
			return err
		}
		if len(resp.Results) != len(o.flows) {
			return fmt.Errorf("%d results for %d flows", len(resp.Results), len(o.flows))
		}
		for i, s := range resp.Results {
			if err := checkScore(s, o.flows[i]); err != nil {
				return err
			}
		}
		out.version = resp.Version
		if o.kind == opPredict {
			out.probs = resp.Results[0].Probs
		}
	case opRecommend:
		data, err := c.do(ctx, http.MethodPost, "/v1/recommend", o.body, reqID)
		if err != nil {
			return err
		}
		var resp struct {
			PoolSize int               `json:"pool_size"`
			Angels   []serve.FlowScore `json:"angels"`
			Devils   []serve.FlowScore `json:"devils"`
		}
		if err := json.Unmarshal(data, &resp); err != nil {
			return err
		}
		if resp.PoolSize != recommendPool || len(resp.Angels) != recommendTopK || len(resp.Devils) != recommendTopK {
			return fmt.Errorf("recommend: pool %d, %d angels, %d devils", resp.PoolSize, len(resp.Angels), len(resp.Devils))
		}
		for _, s := range append(resp.Angels, resp.Devils...) {
			if err := checkScore(s, s.Flow); err != nil {
				return err
			}
			if _, err := c.space.Parse(s.Flow); err != nil {
				return fmt.Errorf("recommend returned %q: %w", s.Flow, err)
			}
		}
	case opLabel:
		data, err := c.do(ctx, http.MethodPost, "/v1/label", o.body, reqID)
		if err != nil {
			return err
		}
		var resp struct {
			Accepted    bool `json:"accepted"`
			DatasetSize int  `json:"dataset_size"`
		}
		if err := json.Unmarshal(data, &resp); err != nil {
			return err
		}
		if resp.DatasetSize < 1 {
			return fmt.Errorf("label: dataset size %d", resp.DatasetSize)
		}
		out.accepted, out.size = resp.Accepted, resp.DatasetSize
	}
	return nil
}

// checkScore validates one scored flow: the echoed flow, a probability
// distribution, and the class as its argmax.
func checkScore(s serve.FlowScore, want string) error {
	if s.Flow != want {
		return fmt.Errorf("answer for %q names %q", want, s.Flow)
	}
	if len(s.Probs) != len(label.DefaultPercentiles)+1 {
		return fmt.Errorf("%d probabilities", len(s.Probs))
	}
	sum, best := 0.0, 0
	for i, p := range s.Probs {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("probability %v", p)
		}
		sum += p
		if p > s.Probs[best] {
			best = i
		}
	}
	if math.Abs(sum-1) > 1e-6 || s.Class != best || s.Confidence != s.Probs[best] {
		return fmt.Errorf("malformed score %+v", s)
	}
	return nil
}

// phaseStats summarizes one phase per op kind.
type phaseStats struct {
	lat        [numOps][]float64 // ms from due, successful ops
	late       []float64         // ms the generator ran behind
	sent, okay int
}

func (p *phase) stats() phaseStats {
	var s phaseStats
	for i, o := range p.outs {
		s.sent++
		s.late = append(s.late, millis(o.late))
		if !o.ok {
			continue
		}
		s.okay++
		s.lat[p.ops[i].kind] = append(s.lat[p.ops[i].kind], millis(o.latency))
	}
	return s
}

// account adds the phase's requests to the run's attempted and failed
// counts, and fails the run's correctness on any malformed response.
func (r *run) account(p *phase) {
	s := p.stats()
	r.attempted += int64(s.sent)
	r.failed += int64(s.sent - s.okay)
	malformed := 0
	for _, o := range p.outs {
		if o.malformed {
			malformed++
		}
	}
	if malformed > 0 {
		r.fail("%s: %d malformed responses", p.name, malformed)
	}
	for i, msg := range p.problems {
		if i == 5 {
			logf("%s: %d more request errors", p.name, len(p.problems)-5)
			break
		}
		logf("request error: %s", msg)
	}
}

// checkPredictSample rescores a sample of the phase's single-flow
// predict answers with Model.PredictFlows on the snapshot that served
// them; they must match exactly.
func checkPredictSample(r *run, p *phase, snaps map[int]*serve.Model, every int) {
	checked := 0
	for i, o := range p.outs {
		if !o.ok || p.ops[i].kind != opPredict || i%every != 0 {
			continue
		}
		m := snaps[o.version]
		if m == nil {
			continue
		}
		f, err := m.Space.Parse(p.ops[i].flows[0])
		if err != nil {
			r.fail("parse %q: %v", p.ops[i].flows[0], err)
			continue
		}
		probs, err := m.PredictFlows(context.Background(), []flow.Flow{f}, 1)
		r.attempted++
		checked++
		if err != nil {
			r.failed++
			r.fail("PredictFlows: %v", err)
			continue
		}
		for k := range probs[0] {
			if probs[0][k] != o.probs[k] {
				r.fail("predict %q v%d: served %v, PredictFlows %v", p.ops[i].flows[0], o.version, o.probs, probs[0])
				break
			}
		}
	}
	if checked == 0 {
		r.fail("%s: no predict answer could be checked against PredictFlows", p.name)
	}
}

// serverStats is the part of /v1/stats the benchmark reads.
type serverStats struct {
	Endpoints map[string]serve.EndpointStats `json:"endpoints"`
	Batchers  map[string]serve.BatcherStats  `json:"batchers"`
	Cache     serve.CacheStats               `json:"cache"`
}

// reportServerStats records the serve per-layer metrics read from
// /v1/stats.
func reportServerStats(r *run, c *client) error {
	var st serverStats
	if err := c.getJSON("/v1/stats", &st); err != nil {
		return err
	}
	b := st.Batchers[serveModelName]
	r.setLayer("serve.batch.mean", b.MeanBatch(), "count")
	r.setLayer("serve.batch.max", float64(b.MaxBatch), "count")
	r.setLayer("serve.batcher.rejected", float64(b.Rejected), "count")
	if n := st.Cache.Hits + st.Cache.Misses; n > 0 {
		r.setLayer("serve.cache.hit_ratio", float64(st.Cache.Hits)/float64(n), "ratio")
	}
	for _, ep := range []string{"predict", "recommend", "label"} {
		e := st.Endpoints[ep]
		r.setLayer("serve."+ep+".p50_ms", e.P50Micro/1000, "ms")
		r.setLayer("serve."+ep+".p99_ms", e.P99Micro/1000, "ms")
	}
	return nil
}

// replayServeLayers times Space.Parse, nn.NewPredictor and
// Predictor.PredictStream from the benchmark's files.
func replayServeLayers(r *run, e *serveEnv) error {
	for i, k := range e.keys[:min(len(e.keys), 2000)] {
		_, end := r.tr.start("serve.parse", 0, fmt.Sprintf("parse/%d", i))
		_, err := e.space.Parse(k)
		end()
		if err != nil {
			return err
		}
	}
	m, err := e.reg.Get(serveModelName)
	if err != nil {
		return err
	}
	var pred nn.Predictor
	for i := 0; i < 5; i++ {
		_, end := r.tr.start("nn.compile", 0, "replay")
		pred, err = nn.NewPredictor(m.Net, m.Precision, m.Arch.InH, m.Arch.InW)
		end()
		if err != nil {
			return err
		}
	}
	pool := e.space.RandomUnique(rand.New(rand.NewSource(r.seed)), recommendPool)
	for i := 0; i < 20; i++ {
		_, end := r.tr.start("nn.predict_stream", 0, "replay")
		_, err := pred.PredictStream(context.Background(), len(pool), 0, core.FlowSource(e.space, pool, m.Arch.InH, m.Arch.InW))
		end()
		if err != nil {
			return err
		}
	}
	self := r.tr.selfTimes()
	r.setLayer("serve.parse.us", self["serve.parse"].PerCall(time.Microsecond), "us")
	r.setLayer("nn.compile.ms", self["nn.compile"].PerCall(time.Millisecond), "ms")
	r.setLayer("nn.predict.us_per_flow", self["nn.predict_stream"].PerCall(time.Microsecond)/float64(len(pool)), "us")
	return nil
}

// reportGen records the generator's per-layer counts and lateness.
func reportGen(r *run, p *phase) {
	s := p.stats()
	r.setLayer("gen.late.p99_ms", tail(s.late), "ms")
	r.setLayer("gen.sent", float64(s.sent), "count")
	r.setLayer("gen.ok", float64(s.okay), "count")
	r.setLayer("gen.failed", float64(s.sent-s.okay), "count")
}
