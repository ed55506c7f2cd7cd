package predictors

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"prism5g/internal/nn"
	"prism5g/internal/trace"
)

// bombModel's forward panics on the window whose targets equal bomb. Each
// forward sleeps briefly, so the helper claims some of every batch, and
// counts itself in active while it runs.
type bombModel struct {
	p      *nn.Param
	bomb   float64
	active atomic.Int32
}

func (m *bombModel) Params() []*nn.Param { return []*nn.Param{m.p} }

func (m *bombModel) Forward(w trace.Window, train bool) ([]float64, Tape) {
	m.active.Add(1)
	defer m.active.Add(-1)
	time.Sleep(100 * time.Microsecond)
	if w.Y[0] == m.bomb {
		panic("forward exploded")
	}
	return w.Y, brittleTape{m.p}
}

// TestTrainLoopForwardPanicSurfaces places a panicking forward at every
// position of a training batch and of a scoring batch: wherever the
// pipeline ran it, the panic must reach TrainLoop's caller, and no forward
// may still be running on the helper when it does.
func TestTrainLoopForwardPanicSurfaces(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	fill := func(i int) float64 { return 0.3 + 0.01*float64(i) }
	var train, val []trace.Window
	for i := 0; i < 8; i++ {
		train = append(train, mkWindow(10, 10, fill(i)))
		val = append(val, mkWindow(10, 10, fill(10+i)))
	}
	opts := TrainOpts{Epochs: 1, Batch: 8, LR: 0.01, Patience: 1, Seed: 1}
	for i := 0; i < 18; i++ {
		if i == 8 || i == 9 {
			continue
		}
		m := &bombModel{p: nn.NewParam("w", 1), bomb: fill(i)}
		func() {
			defer func() {
				if pv := recover(); pv != "forward exploded" {
					t.Errorf("bomb at %d: recovered %v, want the forward's panic", i, pv)
				}
			}()
			TrainLoop(m, train, val, opts)
		}()
		if n := m.active.Load(); n != 0 {
			t.Errorf("bomb at %d: %d forwards still running after TrainLoop returned", i, n)
		}
	}
}
