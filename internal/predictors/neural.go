package predictors

import (
	"sync"

	"prism5g/internal/nn"
	"prism5g/internal/rng"
	"prism5g/internal/trace"
)

// The neural baselines keep their forward/backward intermediates in pooled
// scratch (tapes + a bump arena) so the hot paths stop allocating per
// sample. A sync.Pool is required rather than a plain struct field because
// forwards run concurrently: Predict under the serving path's concurrent
// callers, and training forwards on the training loop's helper goroutine.
// Forward returns the scratch itself as the Tape, which also holds the
// window, so Backward needs nothing else and allocates nothing. Predict
// copies the forecast out before releasing the scratch: callers
// (Resilient, the serving layer) may hold or mutate it after the scratch
// is reused.

// HeadPredictor is a CA-blind neural baseline: an Encoder over the
// aggregate feature sequence, read at its last step, then a linear head
// emitting the full horizon. The LSTM [28] and TCN [9] baselines are both
// HeadPredictors.
type HeadPredictor struct {
	name string
	opts TrainOpts
	enc  Encoder
	head *nn.Dense

	pool sync.Pool // *headScratch
}

// headScratch is one HeadPredictor pass; as a Tape it backpropagates it.
type headScratch struct {
	p       *HeadPredictor
	w       trace.Window
	enc     EncoderTape
	ar      nn.Arena
	last, y []float64
}

func newHeadPredictor(name string, opts TrainOpts, enc Encoder, head *nn.Dense) *HeadPredictor {
	p := &HeadPredictor{name: name, opts: opts, enc: enc, head: head}
	p.pool.New = func() any { return &headScratch{p: p} }
	return p
}

// NewLSTMPredictor builds the LSTM baseline (paper: two-layer 128 hidden;
// we use one layer sized by hidden, which trains far faster at equal
// accuracy on these trace sizes).
func NewLSTMPredictor(hidden, horizon int, opts TrainOpts) *HeadPredictor {
	src := rng.New(opts.Seed ^ 0x15717)
	enc := NewLSTMEncoder("lstm", AggFeatureDim, hidden, src)
	return newHeadPredictor("LSTM", opts, enc, nn.NewDense("lstm.head", hidden, horizon, src))
}

// NewTCNPredictor builds the TCN baseline: kernel 2, three blocks.
func NewTCNPredictor(channels, horizon int, opts TrainOpts) *HeadPredictor {
	src := rng.New(opts.Seed ^ 0x7c17)
	enc := NewTCNEncoder("tcn", AggFeatureDim, channels, 2, 3, src)
	return newHeadPredictor("TCN", opts, enc, nn.NewDense("tcn.head", channels, horizon, src))
}

// Name implements Predictor.
func (p *HeadPredictor) Name() string { return p.name }

// Params implements SeqModel.
func (p *HeadPredictor) Params() []*nn.Param {
	return append(p.enc.Params(), p.head.Params()...)
}

// Forward implements SeqModel; training and inference passes are the same.
func (p *HeadPredictor) Forward(w trace.Window, _ bool) ([]float64, Tape) {
	s := p.pool.Get().(*headScratch)
	s.ar.Reset()
	s.w = w
	s.last = p.enc.Forward(&s.enc, aggFeaturesInto(&s.ar, w))
	s.y = p.head.ForwardInto(s.ar.Floats(p.head.Out), s.last)
	return s.y, s
}

// Backward implements Tape.
func (s *headScratch) Backward(gScale float64) {
	p := s.p
	if gScale > 0 {
		g := lossGrad(&s.ar, s.y, s.w.Y, gScale)
		p.enc.Backward(&s.enc, p.head.BackwardInto(s.ar.Floats(p.head.In), s.last, g))
	}
	s.w = trace.Window{}
	p.pool.Put(s)
}

// Train implements Predictor.
func (p *HeadPredictor) Train(train, val []trace.Window) TrainReport {
	return TrainLoop(p, train, val, p.opts)
}

// Predict implements Predictor.
func (p *HeadPredictor) Predict(w trace.Window) []float64 {
	return Predict(p, w)
}

// lossGrad returns the MSE gradient of y against truth scaled by gScale,
// drawn from ar.
func lossGrad(ar *nn.Arena, y, truth []float64, gScale float64) []float64 {
	g := nn.MSEGradInto(ar.Floats(len(y)), y, truth)
	for i := range g {
		g[i] *= gScale
	}
	return g
}

// Lumos5G is the Seq2Seq baseline: Lumos5G's model architecture [32]
// (encoder-decoder) over UE-side context features. The mmWave-specific
// user-context features (panel angle, orientation) are omitted per the
// paper's footnote 4.
type Lumos5G struct {
	Hidden  int
	Horizon int
	Opts    TrainOpts

	s2s *nn.Seq2Seq

	pool sync.Pool // *lumosScratch
}

// lumosScratch is one Lumos5G pass; as a Tape it backpropagates it.
type lumosScratch struct {
	p    *Lumos5G
	w    trace.Window
	tape nn.Seq2SeqTape
	ar   nn.Arena
	y    []float64
}

// NewLumos5G builds the Seq2Seq baseline.
func NewLumos5G(hidden, horizon int, opts TrainOpts) *Lumos5G {
	src := rng.New(opts.Seed ^ 0x10305)
	p := &Lumos5G{
		Hidden: hidden, Horizon: horizon, Opts: opts,
		s2s: nn.NewSeq2Seq("lumos", AggFeatureDim, hidden, horizon, src),
	}
	p.pool.New = func() any { return &lumosScratch{p: p} }
	return p
}

// Name implements Predictor.
func (p *Lumos5G) Name() string { return "Lumos5G" }

// Params implements SeqModel.
func (p *Lumos5G) Params() []*nn.Param { return p.s2s.Params() }

// Forward implements SeqModel. The training pass decodes with teacher
// forcing, inference autoregressively.
func (p *Lumos5G) Forward(w trace.Window, train bool) ([]float64, Tape) {
	s := p.pool.Get().(*lumosScratch)
	s.ar.Reset()
	seq := aggFeaturesInto(&s.ar, w)
	var teacher []float64
	if train {
		teacher = w.Y
	}
	s.w = w
	s.y = p.s2s.ForwardTape(&s.tape, seq, w.AggHist[len(w.AggHist)-1], teacher)
	return s.y, s
}

// Backward implements Tape.
func (s *lumosScratch) Backward(gScale float64) {
	p := s.p
	if gScale > 0 {
		p.s2s.Backward(&s.tape, lossGrad(&s.ar, s.y, s.w.Y, gScale))
	}
	s.w = trace.Window{}
	p.pool.Put(s)
}

// Train implements Predictor.
func (p *Lumos5G) Train(train, val []trace.Window) TrainReport {
	return TrainLoop(p, train, val, p.Opts)
}

// Predict implements Predictor.
func (p *Lumos5G) Predict(w trace.Window) []float64 {
	return Predict(p, w)
}
