package predictors

import (
	"prism5g/internal/nn"
	"prism5g/internal/rng"
)

// Encoder is a sequence backbone read at its last step: the shape shared by
// the LSTM [28] and TCN [9] baselines and by Prism5G's per-CC RNN. Forward
// only reads the weights, so forwards may run concurrently, each on its own
// tape. Backward accumulates into Param.Grad, so the backwards of one
// Encoder run one at a time (the training loop runs every backward on one
// goroutine).
type Encoder interface {
	Params() []*nn.Param
	// Forward runs seq, recording into t, and returns the last step's
	// output, a view into t valid until its next use.
	Forward(t *EncoderTape, seq [][]float64) (last []float64)
	// Backward backpropagates gLast, the loss gradient with respect to the
	// output Forward returned, through the pass recorded in t.
	Backward(t *EncoderTape, gLast []float64)
}

// EncoderTape is one Encoder pass: the nn tape of whichever backbone ran.
// Weight sharing shares an Encoder, never a tape.
type EncoderTape struct {
	lstm nn.LSTMTape
	gru  nn.GRUTape
	tcn  nn.TCNTape
}

type lstmEncoder struct{ m *nn.LSTM }

// NewLSTMEncoder builds a single-layer LSTM encoder read at its last
// hidden state.
func NewLSTMEncoder(name string, in, hidden int, src *rng.Source) Encoder {
	return lstmEncoder{nn.NewLSTM(name, in, hidden, src)}
}

func (e lstmEncoder) Params() []*nn.Param { return e.m.Params() }

func (e lstmEncoder) Forward(t *EncoderTape, seq [][]float64) []float64 {
	hs := e.m.ForwardTape(&t.lstm, seq, nil, nil)
	return hs[len(hs)-1]
}

func (e lstmEncoder) Backward(t *EncoderTape, g []float64) {
	e.m.Backward(&t.lstm, [][]float64{g})
}

type gruEncoder struct{ m *nn.GRU }

// NewGRUEncoder builds a GRU encoder read at its last hidden state.
func NewGRUEncoder(name string, in, hidden int, src *rng.Source) Encoder {
	return gruEncoder{nn.NewGRU(name, in, hidden, src)}
}

func (e gruEncoder) Params() []*nn.Param { return e.m.Params() }

func (e gruEncoder) Forward(t *EncoderTape, seq [][]float64) []float64 {
	hs := e.m.ForwardTape(&t.gru, seq)
	return hs[len(hs)-1]
}

func (e gruEncoder) Backward(t *EncoderTape, g []float64) {
	e.m.Backward(&t.gru, [][]float64{g})
}

type tcnEncoder struct{ m *nn.TCN }

// NewTCNEncoder builds a TCN encoder (see nn.NewTCN) read at its last
// output step.
func NewTCNEncoder(name string, in, channels, kernel, blocks int, src *rng.Source) Encoder {
	return tcnEncoder{nn.NewTCN(name, in, channels, kernel, blocks, src)}
}

func (e tcnEncoder) Params() []*nn.Param { return e.m.Params() }

func (e tcnEncoder) Forward(t *EncoderTape, seq [][]float64) []float64 {
	out := e.m.ForwardTape(&t.tcn, seq)
	return out[len(out)-1]
}

func (e tcnEncoder) Backward(t *EncoderTape, g []float64) {
	e.m.Backward(&t.tcn, [][]float64{g})
}
