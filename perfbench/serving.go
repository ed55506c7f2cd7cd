package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"prism5g/internal/mobility"
	"prism5g/internal/predictors"
	"prism5g/internal/ran"
	"prism5g/internal/serve"
	"prism5g/internal/sim"
	"prism5g/internal/spectrum"
	"prism5g/internal/trace"
)

const (
	// loadSessions is four times serve's default Concurrency of 4: in the
	// loaded phase the admission queue fills but never reaches its
	// default QueueCap of 64, so nothing is shed.
	loadSessions = 16
	// loadSamples is the length of each session's campaign trace; the
	// session replays it cyclically, one sample per request.
	loadSamples = 256
	// roundRequests is the requests each session sends in one loaded
	// round; a round replays 16 x 64 requests, the serve workloads' pass.
	roundRequests = 64
	// history is the serve window's history length (serve's default).
	history = 10
	// campaignSalt separates the load campaign's seed from the seed of
	// the data the model is trained on.
	campaignSalt = 0x10ad
)

// campaign is the seeded load: one long-granularity trace per session,
// pre-encoded one sample per request body, as prismload sends them. Long
// traces span minutes, so each carries many CA reconfigurations and the
// mix of component carriers per request, which sets the body size and so
// the decode cost, barely varies from seed to seed; short traces span
// 2.56 s each and did.
// samples holds each body decoded by serve.DecodeRequest, which is what
// the server pushes into its session ring.
type campaign struct {
	ids     []string
	bodies  [][][]byte
	samples [][]trace.Sample
}

func buildCampaign(seed uint64, procs int) (*campaign, error) {
	ds := sim.Build(sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: sim.Long},
		sim.BuildOpts{Traces: loadSessions, SamplesPerTrace: loadSamples, Seed: seed ^ campaignSalt,
			Modem: ran.ModemX70, Workers: procs})
	c := &campaign{}
	for s, tr := range ds.Traces {
		if len(tr.Samples) < loadSamples {
			return nil, fmt.Errorf("campaign trace %d has %d samples, want %d", s, len(tr.Samples), loadSamples)
		}
		id := fmt.Sprintf("ue-%04d", s)
		bodies := make([][]byte, loadSamples)
		decoded := make([]trace.Sample, loadSamples)
		for k := range bodies {
			body, err := json.Marshal(serve.Request{Session: id, Samples: []trace.Sample{tr.Samples[k]}})
			if err != nil {
				return nil, fmt.Errorf("encode campaign request: %w", err)
			}
			req, err := serve.DecodeRequest(body, 0)
			if err != nil {
				return nil, fmt.Errorf("decode campaign request: %w", err)
			}
			bodies[k], decoded[k] = body, req.Samples[0]
		}
		c.ids = append(c.ids, id)
		c.bodies = append(c.bodies, bodies)
		c.samples = append(c.samples, decoded)
	}
	return c, nil
}

// Request outcomes as the client classifies them.
const (
	outOK = iota
	outWarmup
	outDegraded
	outShed
	outError
	nOutcomes
)

// endpoint is one model behind serve.New(...).Handler() with serve's
// default Config (prismserve's defaults), driven in process.
type endpoint struct {
	name   string
	model  predictors.Predictor
	scaler *trace.Scaler
	h      http.Handler
	camp   *campaign

	// Per session, touched only by the goroutine driving that session:
	// the next campaign sample to send, the first ok forecast seen for
	// each campaign position, and forecasts that differed from it.
	next     []int
	first    [][][]float64
	mismatch []error
}

func newEndpoint(name string, m predictors.Predictor, sc *trace.Scaler, camp *campaign) *endpoint {
	e := &endpoint{
		name: name, model: m, scaler: sc, camp: camp,
		h:        serve.New(name, m, sc, serve.Config{}).Handler(),
		next:     make([]int, loadSessions),
		first:    make([][][]float64, loadSessions),
		mismatch: make([]error, loadSessions),
	}
	for s := range e.first {
		e.first[s] = make([][]float64, loadSamples)
	}
	return e
}

// respWriter is a reusable in-process http.ResponseWriter.
type respWriter struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func newRespWriter() *respWriter { return &respWriter{hdr: http.Header{}} }

func (w *respWriter) Header() http.Header { return w.hdr }

func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.buf.Write(p)
}

func (w *respWriter) reset() {
	clear(w.hdr)
	w.code = 0
	w.buf.Reset()
}

// reqResult is one request as the client saw it: latency covers building
// the request, ServeHTTP and decoding the reply; handler is ServeHTTP
// alone; queue and infer are the server's own split from the reply.
type reqResult struct {
	outcome              int
	lat, handler, decode time.Duration
	queueMs, inferMs     float64
}

// send posts session s's next campaign sample and classifies the reply.
// An ok forecast is compared bit for bit with the first ok forecast seen
// for the same campaign position; checkForecasts later compares that one
// with the offline pipeline.
func (e *endpoint) send(s int, w *respWriter, tr *tracer) reqResult {
	k := e.next[s]
	e.next[s]++
	pos := k % loadSamples
	root := tr.start("client.request", 0)
	t0 := root.start
	req, err := http.NewRequest(http.MethodPost, "/v1/forecast", bytes.NewReader(e.camp.bodies[s][pos]))
	if err != nil {
		root.end()
		return reqResult{outcome: outError, lat: time.Since(t0)}
	}
	w.reset()
	ht := tr.start("serve.handler", root.id)
	e.h.ServeHTTP(w, req)
	reqID := w.hdr.Get(serve.TraceHeader)
	ht.req = reqID
	r := reqResult{handler: ht.end()}
	switch {
	case w.code == http.StatusTooManyRequests:
		r.outcome = outShed
	case w.code != http.StatusOK:
		r.outcome = outError
	default:
		dt := tr.startReq("client.decode", root.id, reqID)
		var resp serve.Response
		err := json.Unmarshal(w.buf.Bytes(), &resp)
		r.decode = dt.end()
		r.queueMs, r.inferMs = resp.QueueWaitMs, resp.InferMs
		switch {
		case err != nil:
			r.outcome = outError
		case resp.Warmup:
			r.outcome = outWarmup
		case resp.Degraded:
			r.outcome = outDegraded
		default:
			r.outcome = outOK
			e.noteForecast(s, pos, resp.ForecastMbps)
		}
	}
	root.req = reqID
	r.lat = root.end()
	return r
}

func (e *endpoint) noteForecast(s, pos int, f []float64) {
	ref := e.first[s][pos]
	if ref == nil {
		e.first[s][pos] = f
		return
	}
	if err := sameBits(f, ref); err != nil && e.mismatch[s] == nil {
		e.mismatch[s] = fmt.Errorf("session %s position %d: forecast changed between identical windows: %v", e.camp.ids[s], pos, err)
	}
}

// phase accumulates the requests of one timed phase.
type phase struct {
	sent     int
	outcomes [nOutcomes]int
	// Per request latency in ms. When layers is set (traced), also the
	// per-layer split in us: handler for every request; queue, infer,
	// overhead and decode for ok answers.
	lat                                     []float64
	layers                                  bool
	handler, queue, infer, overhead, decode []float64
	wall                                    time.Duration
}

func (p *phase) add(r reqResult) {
	p.sent++
	p.outcomes[r.outcome]++
	p.lat = append(p.lat, float64(r.lat)/1e6)
	if !p.layers {
		return
	}
	p.handler = append(p.handler, float64(r.handler)/1e3)
	if r.outcome == outOK {
		p.queue = append(p.queue, r.queueMs*1e3)
		p.infer = append(p.infer, r.inferMs*1e3)
		p.overhead = append(p.overhead, float64(r.handler)/1e3-r.queueMs*1e3-r.inferMs*1e3)
		p.decode = append(p.decode, float64(r.decode)/1e3)
	}
}

func (p *phase) merge(q *phase) {
	p.sent += q.sent
	for i := range p.outcomes {
		p.outcomes[i] += q.outcomes[i]
	}
	p.lat = append(p.lat, q.lat...)
	p.handler = append(p.handler, q.handler...)
	p.queue = append(p.queue, q.queue...)
	p.infer = append(p.infer, q.infer...)
	p.overhead = append(p.overhead, q.overhead...)
	p.decode = append(p.decode, q.decode...)
	p.wall += q.wall
}

// warm fills every session's window and runs one untimed loaded round, so
// the timed phases see no warmup answers and warm model scratch pools.
func (e *endpoint) warm() {
	off := newTracer()
	w := newRespWriter()
	for s := range e.next {
		for e.next[s] < history {
			e.send(s, w, off)
		}
	}
	e.round(off)
}

// idle is one caller sending n requests round-robin over the sessions.
func (e *endpoint) idle(tr *tracer, n int) *phase {
	p := &phase{layers: tr.enabled()}
	w := newRespWriter()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		p.add(e.send(i%loadSessions, w, tr))
	}
	p.wall = time.Since(t0)
	return p
}

// round is one closed-loop replay of the campaign: every session sends
// roundRequests requests, each as soon as the previous reply arrives. A
// request's latency runs from when it was due, the session's previous
// reply (or the round's start), so it counts the wait for a CPU as well
// as the server's own time. Each session yields after every reply, as a
// client doing network I/O would, so the sessions share the CPUs in turn
// instead of one running many requests in its time slice.
func (e *endpoint) round(tr *tracer) *phase {
	parts := make([]phase, loadSessions)
	for s := range parts {
		parts[s].layers = tr.enabled()
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for s := range parts {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			w := newRespWriter()
			due := t0
			for i := 0; i < roundRequests; i++ {
				r := e.send(s, w, tr)
				now := time.Now()
				r.lat, due = now.Sub(due), now
				parts[s].add(r)
				runtime.Gosched()
			}
		}(s)
	}
	wg.Wait()
	p := &phase{}
	for s := range parts {
		p.merge(&parts[s])
	}
	p.wall = time.Since(t0)
	return p
}

// serverAllocsPerRequest measures heap allocations per ServeHTTP call on
// prepared requests from one caller, so the client's own allocations are
// not counted.
func (e *endpoint) serverAllocsPerRequest(n int) float64 {
	reqs := make([]*http.Request, n)
	for i := range reqs {
		s := i % loadSessions
		body := e.camp.bodies[s][e.next[s]%loadSamples]
		e.next[s]++
		reqs[i], _ = http.NewRequest(http.MethodPost, "/v1/forecast", bytes.NewReader(body))
	}
	w := newRespWriter()
	before := readMem()
	for _, r := range reqs {
		w.reset()
		e.h.ServeHTTP(w, r)
	}
	return readMem().mallocsSince(before) / float64(n)
}

// checkForecasts compares the first ok forecast seen at every campaign
// position with the offline pipeline over the same History samples:
// Scaler.InvertTput(Predict(trace.MakeWindow(...))), bit for bit. Every
// other forecast at that position already matched the first one.
func (e *endpoint) checkForecasts() error {
	for s := range e.first {
		if e.mismatch[s] != nil {
			return e.mismatch[s]
		}
		for pos, got := range e.first[s] {
			if got == nil {
				continue
			}
			if err := sameBits(got, e.offlineForecast(s, pos)); err != nil {
				return fmt.Errorf("%s session %s position %d: served forecast differs from offline pipeline: %v",
					e.name, e.camp.ids[s], pos, err)
			}
		}
	}
	return nil
}

// offlineForecast is the offline pipeline's answer for the window ending
// at campaign position pos of session s.
func (e *endpoint) offlineForecast(s, pos int) []float64 {
	win := make([]trace.Sample, history)
	for j := range win {
		win[j] = e.camp.samples[s][((pos-history+1+j)%loadSamples+loadSamples)%loadSamples]
	}
	tr := trace.Trace{Samples: win}
	w := trace.MakeWindow(&tr, 0, 0, e.scaler, trace.WindowOpts{History: history, Horizon: trace.DefaultWindowOpts().Horizon, Stride: 1})
	y := e.model.Predict(w)
	out := make([]float64, len(y))
	for i, v := range y {
		out[i] = e.scaler.InvertTput(v)
	}
	return out
}

// sameBits reports the first element where got and want differ in bits.
func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("step %d: %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// idleSegment is how many requests one idle stretch sends between loaded
// rounds.
const idleSegment = 256

// measureServing drives a warmed e for about d, alternating an idle
// stretch (one caller, round-robin over the sessions) with a loaded round
// (every session in a closed loop), so both phases sample the same host
// state. It records the forecast metrics and, when traced, the serve.* and
// client.* layers from the traced half of the cycles. It returns the
// loaded rounds' walls, untraced and traced, which are the serve
// workloads' passes.
func (b *bench) measureServing(e *endpoint, d time.Duration) (plain, traced []time.Duration) {
	// Start from a collected heap, so a cycle over the garbage of the
	// work before (a journey's passes) does not run during the timing.
	runtime.GC()
	idle, idleTraced := &phase{}, &phase{}
	loaded, loadedTraced := &phase{}, &phase{}
	t0 := time.Now()
	for i := 0; i < 2 || time.Since(t0) < d; i++ {
		on := b.traced && i%2 == 1
		b.tr.setOn(on)
		ip := e.idle(b.tr, idleSegment)
		r := e.round(b.tr)
		b.tr.setOn(false)
		if on {
			idleTraced.merge(ip)
			loadedTraced.merge(r)
			traced = append(traced, r.wall)
		} else {
			idle.merge(ip)
			loaded.merge(r)
			plain = append(plain, r.wall)
		}
	}

	all := &phase{}
	for _, p := range []*phase{idle, idleTraced, loaded, loadedTraced} {
		all.merge(p)
	}
	for i, n := range all.outcomes {
		for j := 0; j < n; j++ {
			b.op(i != outOK)
		}
	}
	b.check(checkAccounting(all.sent, all.outcomes))
	b.check(e.checkForecasts())

	if !b.traced {
		b.e2e["idle_p50_ms"] = quantile(idle.lat, 0.5)
		b.e2e["idle_p90_ms"] = quantile(idle.lat, 0.9)
		b.e2e["loaded_p50_ms"] = quantile(loaded.lat, 0.5)
		b.e2e["loaded_p90_ms"] = quantile(loaded.lat, 0.9)
		b.e2e["forecasts_per_s"] = float64(loaded.outcomes[outOK]) / loaded.wall.Seconds()
		return plain, traced
	}
	b.layer["serve.handler_p50_us"] = quantile(loadedTraced.handler, 0.5)
	b.layer["serve.handler_p99_us"] = quantile(loadedTraced.handler, 0.99)
	b.layer["serve.queue_wait_p50_us"] = quantile(loadedTraced.queue, 0.5)
	b.layer["serve.queue_wait_p99_us"] = quantile(loadedTraced.queue, 0.99)
	b.layer["serve.infer_p50_us"] = quantile(loadedTraced.infer, 0.5)
	b.layer["serve.infer_p99_us"] = quantile(loadedTraced.infer, 0.99)
	b.layer["serve.overhead_p50_us"] = quantile(loadedTraced.overhead, 0.5)
	b.layer["serve.idle_handler_p50_us"] = quantile(idleTraced.handler, 0.5)
	b.layer["serve.idle_infer_p50_us"] = quantile(idleTraced.infer, 0.5)
	b.layer["serve.idle_overhead_p50_us"] = quantile(idleTraced.overhead, 0.5)
	b.layer["serve.ok_ratio"] = float64(all.outcomes[outOK]) / float64(all.sent)
	b.layer["serve.allocs_per_request"] = e.serverAllocsPerRequest(512)
	b.layer["client.decode_us"] = quantile(append(idleTraced.decode, loadedTraced.decode...), 0.5)
	b.layer["client.sent"] = float64(all.sent)
	b.layer["client.ok"] = float64(all.outcomes[outOK])
	b.layer["client.warmup"] = float64(all.outcomes[outWarmup])
	b.layer["client.degraded"] = float64(all.outcomes[outDegraded])
	b.layer["client.shed"] = float64(all.outcomes[outShed])
	b.layer["client.error"] = float64(all.outcomes[outError])
	// The served model's Predict cost, unless the workload already timed
	// its Predict calls directly.
	if key := "predictors.predict_us." + e.name; b.layer[key] == 0 {
		b.layer[key] = quantile(idleTraced.infer, 0.5)
	}
	return plain, traced
}

// checkAccounting checks that every request sent got exactly one outcome.
func checkAccounting(sent int, outcomes [nOutcomes]int) error {
	sum := 0
	for _, n := range outcomes {
		sum += n
	}
	if sum != sent {
		return fmt.Errorf("sent %d requests but ok+warmup+degraded+shed+error = %d+%d+%d+%d+%d = %d",
			sent, outcomes[outOK], outcomes[outWarmup], outcomes[outDegraded], outcomes[outShed], outcomes[outError], sum)
	}
	return nil
}
