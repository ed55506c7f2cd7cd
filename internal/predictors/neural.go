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

// LSTMPredictor is the LSTM baseline [28]: one recurrent pass over the
// aggregate feature sequence, with a linear head emitting the full horizon.
type LSTMPredictor struct {
	Hidden  int
	Horizon int
	Opts    TrainOpts

	lstm *nn.LSTM
	head *nn.Dense

	pool sync.Pool // *lstmScratch
}

// lstmScratch is one LSTMPredictor pass; as a Tape it backpropagates it.
type lstmScratch struct {
	p       *LSTMPredictor
	w       trace.Window
	tape    nn.LSTMTape
	ar      nn.Arena
	last, y []float64
}

// NewLSTMPredictor builds the baseline (paper: two-layer 128 hidden; we use
// one layer sized by hidden, which trains far faster at equal accuracy on
// these trace sizes).
func NewLSTMPredictor(hidden, horizon int, opts TrainOpts) *LSTMPredictor {
	src := rng.New(opts.Seed ^ 0x15717)
	p := &LSTMPredictor{
		Hidden: hidden, Horizon: horizon, Opts: opts,
		lstm: nn.NewLSTM("lstm", AggFeatureDim, hidden, src),
		head: nn.NewDense("lstm.head", hidden, horizon, src),
	}
	p.pool.New = func() any { return &lstmScratch{p: p} }
	return p
}

// Name implements Predictor.
func (p *LSTMPredictor) Name() string { return "LSTM" }

// Params implements SeqModel.
func (p *LSTMPredictor) Params() []*nn.Param {
	return append(p.lstm.Params(), p.head.Params()...)
}

// Forward implements SeqModel; training and inference passes are the same.
func (p *LSTMPredictor) Forward(w trace.Window, _ bool) ([]float64, Tape) {
	s := p.pool.Get().(*lstmScratch)
	s.ar.Reset()
	seq := aggFeaturesInto(&s.ar, w)
	hs := p.lstm.ForwardTape(&s.tape, seq, nil, nil)
	s.last = hs[len(hs)-1]
	s.w = w
	s.y = p.head.ForwardInto(s.ar.Floats(p.head.Out), s.last)
	return s.y, s
}

// Backward implements Tape.
func (s *lstmScratch) Backward(gScale float64) {
	p := s.p
	if gScale > 0 {
		g := nn.MSEGradInto(s.ar.Floats(len(s.y)), s.y, s.w.Y)
		for i := range g {
			g[i] *= gScale
		}
		gh := s.ar.Rows(s.tape.T())
		gh[len(gh)-1] = p.head.BackwardInto(s.ar.Floats(p.head.In), s.last, g)
		p.lstm.Backward(&s.tape, gh)
	}
	s.w = trace.Window{}
	p.pool.Put(s)
}

// Train implements Predictor.
func (p *LSTMPredictor) Train(train, val []trace.Window) TrainReport {
	return TrainLoop(p, train, val, p.Opts)
}

// Predict implements Predictor.
func (p *LSTMPredictor) Predict(w trace.Window) []float64 {
	return Predict(p, w)
}

// TCNPredictor is the temporal-convolutional baseline [9].
type TCNPredictor struct {
	Channels, Kernel, Blocks int
	Horizon                  int
	Opts                     TrainOpts

	tcn  *nn.TCN
	head *nn.Dense

	pool sync.Pool // *tcnScratch
}

// tcnScratch is one TCNPredictor pass; as a Tape it backpropagates it.
type tcnScratch struct {
	p       *TCNPredictor
	w       trace.Window
	tape    nn.TCNTape
	ar      nn.Arena
	T       int
	last, y []float64
}

// NewTCNPredictor builds the TCN baseline.
func NewTCNPredictor(channels, horizon int, opts TrainOpts) *TCNPredictor {
	src := rng.New(opts.Seed ^ 0x7c17)
	p := &TCNPredictor{
		Channels: channels, Kernel: 2, Blocks: 3, Horizon: horizon, Opts: opts,
		tcn:  nn.NewTCN("tcn", AggFeatureDim, channels, 2, 3, src),
		head: nn.NewDense("tcn.head", channels, horizon, src),
	}
	p.pool.New = func() any { return &tcnScratch{p: p} }
	return p
}

// Name implements Predictor.
func (p *TCNPredictor) Name() string { return "TCN" }

// Params implements SeqModel.
func (p *TCNPredictor) Params() []*nn.Param {
	return append(p.tcn.Params(), p.head.Params()...)
}

// Forward implements SeqModel; training and inference passes are the same.
func (p *TCNPredictor) Forward(w trace.Window, _ bool) ([]float64, Tape) {
	s := p.pool.Get().(*tcnScratch)
	s.ar.Reset()
	seq := aggFeaturesInto(&s.ar, w)
	out := p.tcn.ForwardTape(&s.tape, seq)
	s.T = len(out)
	s.last = out[len(out)-1]
	s.w = w
	s.y = p.head.ForwardInto(s.ar.Floats(p.head.Out), s.last)
	return s.y, s
}

// Backward implements Tape.
func (s *tcnScratch) Backward(gScale float64) {
	p := s.p
	if gScale > 0 {
		g := nn.MSEGradInto(s.ar.Floats(len(s.y)), s.y, s.w.Y)
		for i := range g {
			g[i] *= gScale
		}
		gy := s.ar.Rows(s.T)
		gy[s.T-1] = p.head.BackwardInto(s.ar.Floats(p.head.In), s.last, g)
		p.tcn.Backward(&s.tape, gy)
	}
	s.w = trace.Window{}
	p.pool.Put(s)
}

// Train implements Predictor.
func (p *TCNPredictor) Train(train, val []trace.Window) TrainReport {
	return TrainLoop(p, train, val, p.Opts)
}

// Predict implements Predictor.
func (p *TCNPredictor) Predict(w trace.Window) []float64 {
	return Predict(p, w)
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
		g := nn.MSEGradInto(s.ar.Floats(len(s.y)), s.y, s.w.Y)
		for i := range g {
			g[i] *= gScale
		}
		p.s2s.Backward(&s.tape, g)
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
