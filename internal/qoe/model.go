package qoe

import (
	"prism5g/internal/predictors"
	"prism5g/internal/trace"
)

// ModelPredictor adapts a trained throughput predictor (Prism5G or any
// baseline) to the BandwidthPredictor interface the applications consume:
// ViVo+Prism5G, MPC+Prism5G etc. in the paper's §7. It reconstructs the
// model's input window from the replayed trace at decision time.
//
// The window depends only on the trace step the decision falls in, while
// the apps decide many times per step (cloud gaming every 1/60 s against a
// 1 s long-granularity step). ModelPredictor therefore memoizes the latest
// forecast by window start and runs the model once per step; the horizon
// average is still recomputed on every call. This relies on P.Predict being
// a pure function of the window that returns a freshly allocated slice (the
// contract every predictor in this repository keeps): the memoized forecast
// is read, never written, and is reused only for the same window. Build one
// with NewModelPredictor.
type ModelPredictor struct {
	Label string
	P     predictors.Predictor
	TR    *trace.Trace
	SC    *trace.Scaler
	WOpts trace.WindowOpts

	fallback MovingMean
	// memoStart is the window start memoY was forecast from; -1 until
	// the first forecast.
	memoStart int
	memoY     []float64
}

// rebinder is implemented by predictors whose Predict resolves windows
// against a dataset (Prophet); online use rebinds them to the streamed
// trace.
type rebinder interface {
	Rebind(ds *trace.Dataset) predictors.Predictor
}

// NewModelPredictor wires a predictor to a trace for online use.
func NewModelPredictor(label string, p predictors.Predictor, tr *trace.Trace, sc *trace.Scaler, wopts trace.WindowOpts) *ModelPredictor {
	if rb, ok := p.(rebinder); ok {
		p = rb.Rebind(&trace.Dataset{StepS: tr.StepS, Traces: []trace.Trace{*tr}})
	}
	return &ModelPredictor{Label: label, P: p, TR: tr, SC: sc, WOpts: wopts, fallback: MovingMean{K: 5}, memoStart: -1}
}

// Name implements BandwidthPredictor.
func (m *ModelPredictor) Name() string { return m.Label }

// Observe implements BandwidthPredictor (feeds the cold-start fallback).
func (m *ModelPredictor) Observe(t float64) { m.fallback.Observe(t) }

// PredictMbps implements BandwidthPredictor: it averages over the horizon
// the model's forecast from the feature window ending at now, running the
// model only when that window differs from the previous call's.
func (m *ModelPredictor) PredictMbps(now, horizonS float64) float64 {
	idx := int(now / m.TR.StepS)
	start := idx - m.WOpts.History
	if start < 0 || idx >= len(m.TR.Samples) {
		return m.fallback.PredictMbps(now, horizonS)
	}
	if start != m.memoStart {
		m.memoY = m.P.Predict(trace.MakeWindow(m.TR, 0, start, m.SC, m.WOpts))
		m.memoStart = start
	}
	y := m.memoY
	// Average the forecast steps that fall inside the horizon.
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
