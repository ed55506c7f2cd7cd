package predictors

import (
	"runtime"
	"sync/atomic"

	"prism5g/internal/trace"
)

// The training pipeline. Between two Adam steps the weights are frozen, so
// a minibatch's forwards only read shared state and may run on any
// goroutine. Its backwards, the only writers of Param.Grad, all run on the
// trainLoop goroutine in sample order, so every gradient element keeps the
// accumulation chain of a serial loop and training is bit-identical at any
// GOMAXPROCS.
//
// One helper goroutine per training run claims forwards from a shared
// counter. The caller runs the backwards in sample order; whenever the
// forward it needs next is still running on the helper, it claims the
// next unclaimed forward itself, so both cores stay busy until the batch
// ends. Look-ahead tokens bound the samples forwarded but not yet
// backpropagated, which keeps the live tapes few and cache-resident.
// Scoring batches split their forwards the same way and add squared errors
// in sample order once all are done. At GOMAXPROCS 1 there is no helper:
// the caller runs every forward inline.

// pipeAhead bounds the training samples forwarded but not yet
// backpropagated, the one being backpropagated included. It must be at
// least 2: the helper may hold a token it has not used yet while the
// caller claims the sample it needs next. With fewer than four the helper
// sat idle behind the caller's backwards; handing over samples in chunks
// of four measured no faster than one at a time, and kept more tapes live.
const pipeAhead = 4

// pipeline runs one training run's minibatches. Its methods other than
// help and helpBatch are called from the trainLoop goroutine only.
type pipeline struct {
	m     SeqModel
	ws    []trace.Window // the current batch
	train bool           // the current batch trains (else it is scored)
	next  atomic.Int64   // next unclaimed sample
	ys    [][]float64    // per sample of a training batch: views into tapes
	tapes []Tape
	mine  []bool // samples of the current batch the caller ran itself
	// preds holds a scoring batch's predictions, views into predBuf, which
	// has room for each window's horizon.
	preds   [][]float64
	predBuf []float64

	helper bool // a helper goroutine exists
	shared bool // the helper takes part in the current batch
	// failed reports that the helper recovered a panic in this batch.
	failed atomic.Bool
	// tokens is a semaphore: one token per claimed training sample whose
	// backward has not finished.
	tokens chan struct{}
	// ready tells the caller a training forward the helper ran is done,
	// in claim order. It holds a batch's worth, one send per sample at
	// most, so the helper never blocks on it.
	ready  chan struct{}
	start  chan struct{} // caller to helper: a batch is published
	done   chan any      // helper to caller: it has left the batch, with a recovered panic or nil
	quit   chan struct{}
	exited chan struct{}
}

// newPipeline sizes a pipeline for batches of at most batch windows and
// starts its helper when GOMAXPROCS allows one.
func newPipeline(m SeqModel, batch int) *pipeline {
	pl := &pipeline{m: m, ys: make([][]float64, batch), tapes: make([]Tape, batch),
		mine: make([]bool, batch), preds: make([][]float64, batch)}
	if runtime.GOMAXPROCS(0) > 1 {
		pl.helper = true
		pl.tokens = make(chan struct{}, pipeAhead)
		pl.ready = make(chan struct{}, batch)
		pl.start = make(chan struct{})
		pl.done = make(chan any, 1)
		pl.quit = make(chan struct{})
		pl.exited = make(chan struct{})
		go pl.help()
	}
	return pl
}

// stop ends the helper and waits until it has exited, so no forward runs
// after trainLoop returns, even when it unwinds a panic mid-batch.
func (pl *pipeline) stop() {
	if pl.helper {
		close(pl.quit)
		<-pl.exited
	}
}

// trainBatch runs one training minibatch: forwards on both goroutines,
// then, here and in sample order, each sample's squared error and
// backward.
func (pl *pipeline) trainBatch(ws []trace.Window, gScale float64, se *sumSqErr) {
	pl.begin(ws, true)
	for k, w := range ws {
		pl.await(k)
		se.addOne(pl.ys[k], w.Y)
		pl.tapes[k].Backward(gScale)
		if pl.shared {
			<-pl.tokens
		}
	}
	pl.end()
}

// scoreBatch runs one scoring batch's forwards on both goroutines, then
// adds the squared errors here in sample order.
func (pl *pipeline) scoreBatch(ws []trace.Window, se *sumSqErr) {
	pl.begin(ws, false)
	for pl.claim() {
	}
	pl.end()
	for k, w := range ws {
		se.addOne(pl.preds[k], w.Y)
	}
}

// begin publishes a batch and, when it has more than one sample, hands it
// to the helper too.
func (pl *pipeline) begin(ws []trace.Window, train bool) {
	pl.ws, pl.train = ws, train
	pl.next.Store(0)
	clear(pl.mine[:len(ws)])
	if !train && len(ws) > 0 {
		if need := len(ws) * len(ws[0].Y); len(pl.predBuf) < need {
			pl.predBuf = make([]float64, need)
		}
	}
	pl.shared = pl.helper && len(ws) > 1
	if pl.shared {
		pl.start <- struct{}{}
	}
}

// end waits until the helper has left the batch, re-raising a panic it
// recovered on this goroutine.
func (pl *pipeline) end() {
	if pl.shared {
		if pv := <-pl.done; pv != nil {
			panic(pv)
		}
	}
}

// claim runs the next unclaimed forward here. It reports false when none
// is left or, for a shared training batch, the look-ahead bound is
// reached.
func (pl *pipeline) claim() bool {
	bounded := pl.shared && pl.train
	if bounded {
		select {
		case pl.tokens <- struct{}{}:
		default:
			return false
		}
	}
	k := int(pl.next.Add(1)) - 1
	if k >= len(pl.ws) {
		if bounded {
			<-pl.tokens
		}
		return false
	}
	pl.run(k)
	pl.mine[k] = true
	return true
}

// await returns once sample k's forward is done. The helper reports its
// samples in claim order and the caller awaits them in index order, so
// the next report is for k whenever k is the helper's. Until it arrives
// the caller runs later forwards itself.
func (pl *pipeline) await(k int) {
	for !pl.mine[k] {
		select {
		case <-pl.ready:
			pl.checkHelper()
			return
		default:
		}
		if !pl.claim() {
			<-pl.ready
			pl.checkHelper()
			return
		}
	}
}

// checkHelper re-raises a panic the helper recovered.
func (pl *pipeline) checkHelper() {
	if pl.failed.Load() {
		pl.end()
	}
}

// run forwards sample k. A training pass keeps its tape for the backward;
// a scoring pass copies its prediction out and releases the tape at once.
func (pl *pipeline) run(k int) {
	y, t := pl.m.Forward(pl.ws[k], pl.train)
	if pl.train {
		pl.ys[k], pl.tapes[k] = y, t
		return
	}
	h := len(pl.ws[0].Y)
	pl.preds[k] = append(pl.predBuf[k*h:k*h:(k+1)*h], y...)
	t.Backward(0)
}

// help is the helper goroutine: one batch per start signal until quit.
func (pl *pipeline) help() {
	defer close(pl.exited)
	for {
		select {
		case <-pl.start:
		case <-pl.quit:
			return
		}
		pl.done <- pl.helpBatch()
	}
}

// helpBatch claims and runs forwards until the batch has none left. A
// panic in a forward is recovered and returned; the sample it hit is still
// reported, so a caller waiting for it wakes up and re-raises it.
func (pl *pipeline) helpBatch() (pv any) {
	defer func() {
		if pv = recover(); pv != nil {
			pl.failed.Store(true)
			if pl.train {
				pl.ready <- struct{}{}
			}
		}
	}()
	for {
		if pl.train {
			select {
			case pl.tokens <- struct{}{}:
			case <-pl.quit:
				return nil
			}
		}
		k := int(pl.next.Add(1)) - 1
		if k >= len(pl.ws) {
			if pl.train {
				<-pl.tokens
			}
			return nil
		}
		pl.run(k)
		if pl.train {
			pl.ready <- struct{}{}
		}
	}
}
