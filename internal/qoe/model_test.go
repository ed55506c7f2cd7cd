package qoe

import (
	"math"
	"reflect"
	"testing"

	"prism5g/internal/mobility"
	"prism5g/internal/predictors"
	"prism5g/internal/ran"
	"prism5g/internal/rng"
	"prism5g/internal/sim"
	"prism5g/internal/spectrum"
	"prism5g/internal/trace"
)

// qoeFixture is a small trained LSTM over long-granularity traces: the
// setting in which the apps decide many times per trace step.
type qoeFixture struct {
	ds    *trace.Dataset
	sc    *trace.Scaler
	model predictors.Predictor
	wopts trace.WindowOpts
}

func newQoEFixture(tb testing.TB, traces int) qoeFixture {
	tb.Helper()
	spec := sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: sim.Long}
	ds := sim.Build(spec, sim.BuildOpts{Traces: traces, SamplesPerTrace: 90, Seed: 7,
		Modem: ran.ModemX70, Workers: 1})
	sc := &trace.Scaler{}
	sc.Fit(ds.Traces)
	wopts := trace.DefaultWindowOpts()
	train, val, _ := trace.Split(trace.Windows(ds, sc, trace.WindowOpts{History: 10, Horizon: 10, Stride: 2}),
		0.6, 0.2, rng.New(7))
	m := predictors.NewLSTMPredictor(8, 10, predictors.TrainOpts{Epochs: 12, Batch: 64, LR: 0.01, Patience: 4, Seed: 7})
	m.Train(train, val)
	return qoeFixture{ds: ds, sc: sc, model: m, wopts: wopts}
}

// perFrameReference is ModelPredictor's per-call forecast with no reuse:
// every call rebuilds the window and runs the model. It is the reference
// the production predictor must match bit for bit.
type perFrameReference struct {
	P        predictors.Predictor
	TR       *trace.Trace
	SC       *trace.Scaler
	WOpts    trace.WindowOpts
	fallback MovingMean
}

func (m *perFrameReference) Name() string      { return "reference" }
func (m *perFrameReference) Observe(t float64) { m.fallback.Observe(t) }

func (m *perFrameReference) PredictMbps(now, horizonS float64) float64 {
	idx := int(now / m.TR.StepS)
	start := idx - m.WOpts.History
	if start < 0 || idx >= len(m.TR.Samples) {
		return m.fallback.PredictMbps(now, horizonS)
	}
	w := trace.MakeWindow(m.TR, 0, start, m.SC, m.WOpts)
	y := m.P.Predict(w)
	steps := int(horizonS / m.TR.StepS)
	if steps < 1 {
		steps = 1
	}
	if steps > len(y) {
		steps = len(y)
	}
	s := 0.0
	for i := 0; i < steps; i++ {
		s += m.SC.InvertTput(y[i])
	}
	bw := s / float64(steps)
	if bw < 0 {
		bw = 0
	}
	return bw
}

// assertSameBits fails unless a and b, structs of int and float64 fields,
// are equal with float fields compared by their exact bits.
func assertSameBits(t *testing.T, what string, a, b any) {
	t.Helper()
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		name := va.Type().Field(i).Name
		switch fa.Kind() {
		case reflect.Float64:
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				t.Errorf("%s.%s = %v, reference %v", what, name, fa.Float(), fb.Float())
			}
		case reflect.Int:
			if fa.Int() != fb.Int() {
				t.Errorf("%s.%s = %d, reference %d", what, name, fa.Int(), fb.Int())
			}
		default:
			t.Fatalf("%s.%s: unexpected kind %v", what, name, fa.Kind())
		}
	}
}

// TestModelPredictorMatchesPerFrameReference runs the three apps over
// long-granularity traces through ModelPredictor and through the per-frame
// reference: every result must be identical to the bit.
func TestModelPredictorMatchesPerFrameReference(t *testing.T) {
	fx := newQoEFixture(t, 4)
	for ti := range fx.ds.Traces {
		tr := &fx.ds.Traces[ti]
		model := func() BandwidthPredictor {
			return NewModelPredictor("LSTM", fx.model, tr, fx.sc, fx.wopts)
		}
		ref := func() BandwidthPredictor {
			return &perFrameReference{P: fx.model, TR: tr, SC: fx.sc, WOpts: fx.wopts, fallback: MovingMean{K: 5}}
		}
		ch := NewChannel(tr)
		assertSameBits(t, "ViVoResult", RunViVo(DefaultViVoConfig(), ch, model()),
			RunViVo(DefaultViVoConfig(), ch, ref()))
		assertSameBits(t, "ABRResult", RunABR(DefaultABRConfig(), ch, model()),
			RunABR(DefaultABRConfig(), ch, ref()))
		assertSameBits(t, "CloudGamingResult", RunCloudGaming(DefaultCloudGamingConfig(), ch, model()),
			RunCloudGaming(DefaultCloudGamingConfig(), ch, ref()))
	}
}

// countingPredictor counts the model's Predict calls.
type countingPredictor struct {
	predictors.Predictor
	n *int
}

func (c countingPredictor) Predict(w trace.Window) []float64 {
	*c.n++
	return c.Predictor.Predict(w)
}

// qoeApp runs one app with its default config over a fixed channel.
type qoeApp struct {
	name string
	run  func(BandwidthPredictor)
}

func qoeApps(ch *Channel) []qoeApp {
	return []qoeApp{
		{"vivo", func(bw BandwidthPredictor) { RunViVo(DefaultViVoConfig(), ch, bw) }},
		{"abr", func(bw BandwidthPredictor) { RunABR(DefaultABRConfig(), ch, bw) }},
		{"cloudgaming", func(bw BandwidthPredictor) { RunCloudGaming(DefaultCloudGamingConfig(), ch, bw) }},
	}
}

// BenchmarkQoE times each app over one long-granularity trace with a
// trained model as the bandwidth estimator; forecasts/op is the number of
// model Predict calls per run.
func BenchmarkQoE(b *testing.B) {
	fx := newQoEFixture(b, 1)
	tr := &fx.ds.Traces[0]
	ch := NewChannel(tr)
	for _, app := range qoeApps(ch) {
		b.Run(app.name, func(b *testing.B) {
			forecasts := 0
			p := countingPredictor{fx.model, &forecasts}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				app.run(NewModelPredictor("LSTM", p, tr, fx.sc, fx.wopts))
			}
			b.ReportMetric(float64(forecasts)/float64(b.N), "forecasts/op")
		})
	}
}

// startRecorder records the distinct window starts ModelPredictor is asked
// to forecast from.
type startRecorder struct {
	*ModelPredictor
	calls  int
	starts map[int]bool
}

func (r *startRecorder) PredictMbps(now, horizonS float64) float64 {
	r.calls++
	idx := int(now / r.TR.StepS)
	if start := idx - r.WOpts.History; start >= 0 && idx < len(r.TR.Samples) {
		r.starts[start] = true
	}
	return r.ModelPredictor.PredictMbps(now, horizonS)
}

// TestModelPredictorForecastsOncePerWindow: the model runs once per
// distinct window start, not once per app decision.
func TestModelPredictorForecastsOncePerWindow(t *testing.T) {
	fx := newQoEFixture(t, 2)
	for ti := range fx.ds.Traces {
		tr := &fx.ds.Traces[ti]
		ch := NewChannel(tr)
		for _, app := range qoeApps(ch) {
			forecasts := 0
			rec := &startRecorder{
				ModelPredictor: NewModelPredictor("LSTM", countingPredictor{fx.model, &forecasts}, tr, fx.sc, fx.wopts),
				starts:         map[int]bool{},
			}
			app.run(rec)
			if forecasts != len(rec.starts) {
				t.Errorf("trace %d %s: %d Predict calls for %d distinct window starts",
					ti, app.name, forecasts, len(rec.starts))
			}
			if app.name == "cloudgaming" && 20*forecasts >= rec.calls {
				t.Errorf("trace %d cloudgaming: %d Predict calls for %d PredictMbps calls, want < 1/20",
					ti, forecasts, rec.calls)
			}
		}
	}
}

// TestModelPredictorRecomputesHorizonAverage: calls within one trace step
// share one forecast, but each averages it over its own horizon.
func TestModelPredictorRecomputesHorizonAverage(t *testing.T) {
	fx := newQoEFixture(t, 1)
	tr := &fx.ds.Traces[0]
	forecasts := 0
	mp := NewModelPredictor("LSTM", countingPredictor{fx.model, &forecasts}, tr, fx.sc, fx.wopts)
	ref := &perFrameReference{P: fx.model, TR: tr, SC: fx.sc, WOpts: fx.wopts}
	got := map[float64]float64{}
	for i, h := range []float64{1, 3, 1, 2, 3, 0.15} {
		now := 30 + 0.1*float64(i)
		bw, want := mp.PredictMbps(now, h), ref.PredictMbps(now, h)
		if math.Float64bits(bw) != math.Float64bits(want) {
			t.Fatalf("call %d (horizon %v s): %v, reference %v", i, h, bw, want)
		}
		got[h] = bw
	}
	if forecasts != 1 {
		t.Fatalf("%d Predict calls within one trace step, want 1", forecasts)
	}
	if got[1] == got[2] || got[1] == got[3] || got[2] == got[3] {
		t.Fatalf("horizon averages coincide (%v); the case cannot tell a stale average", got)
	}
}
