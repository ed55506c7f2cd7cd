// Package predictors wires the learning stack to the trace data model and
// implements the paper's baseline throughput predictors: Prophet [44],
// LSTM [28], TCN [9], Lumos5G's Seq2Seq [32], GBDT [32] and RF [4], plus the
// harmonic-mean estimator MPC uses. All baselines are CA-blind: they see the
// aggregate throughput history and the PCell's radio features — exactly the
// "blindly predict overall throughput" framing the paper contrasts with
// Prism5G's per-CC modeling.
package predictors

import (
	"fmt"
	"math"
	"time"

	"prism5g/internal/nn"
	"prism5g/internal/obs"
	"prism5g/internal/rng"
	"prism5g/internal/stats"
	"prism5g/internal/trace"
)

// Predictor forecasts the scaled aggregate throughput over the horizon.
type Predictor interface {
	// Name identifies the predictor in result tables.
	Name() string
	// Train fits the predictor.
	Train(train, val []trace.Window) TrainReport
	// Predict returns the scaled aggregate forecast, one value per
	// horizon step.
	Predict(w trace.Window) []float64
}

// EpochStat records one training epoch of TrainLoop: the running train
// RMSE over the epoch's mini-batches (evaluated at the evolving weights,
// i.e. the usual "training loss" curve), the validation RMSE after the
// epoch, the learning rate in effect (changes across divergence retries),
// the gradient L2 norm at the epoch's last batch (read before the Adam
// step zeroes the accumulators) and the epoch's wall time.
type EpochStat struct {
	Epoch     int
	TrainRMSE float64
	ValRMSE   float64
	LR        float64
	GradNorm  float64
	Duration  time.Duration
}

// TrainReport summarizes a training run.
type TrainReport struct {
	Epochs    int
	TrainRMSE float64
	ValRMSE   float64
	Duration  time.Duration
	// EpochStats holds one entry per epoch actually run, across all
	// divergence retries (Epoch numbers keep counting through rollbacks).
	EpochStats []EpochStat
	// Retries counts divergence recoveries: the loop restored the best
	// (or initial) weights and restarted Adam at a backed-off LR.
	Retries int
	// Diverged reports that the final attempt still ended in a
	// non-finite or exploding loss (the returned weights are the best
	// seen, which may be the initialization).
	Diverged bool
	// Fallback reports that a resilient wrapper swapped in its fallback
	// predictor (see Resilient).
	Fallback bool
}

// String implements fmt.Stringer.
func (r TrainReport) String() string {
	s := fmt.Sprintf("epochs=%d train=%.4f val=%.4f in %v", r.Epochs, r.TrainRMSE, r.ValRMSE, r.Duration)
	if r.Retries > 0 {
		s += fmt.Sprintf(" retries=%d", r.Retries)
	}
	if r.Diverged {
		s += " DIVERGED"
	}
	if r.Fallback {
		s += " FALLBACK"
	}
	return s
}

// ValidWindow reports whether a window is usable for training or scoring:
// all inputs and targets finite. Degraded traces that bypassed repair
// produce NaN-poisoned windows; one such window would corrupt every
// gradient (training) or the pooled RMSE (evaluation).
func ValidWindow(w trace.Window) bool {
	for _, v := range w.AggHist {
		if !finite(v) {
			return false
		}
	}
	for _, v := range w.Y {
		if !finite(v) {
			return false
		}
	}
	for c := range w.X {
		for t := range w.X[c] {
			for _, v := range w.X[c][t] {
				if !finite(v) {
					return false
				}
			}
		}
	}
	return true
}

// FilterValid splits windows into usable ones and a count of rejects.
func FilterValid(ws []trace.Window) (valid []trace.Window, skipped int) {
	valid = make([]trace.Window, 0, len(ws))
	for _, w := range ws {
		if ValidWindow(w) {
			valid = append(valid, w)
		} else {
			skipped++
		}
	}
	return valid, skipped
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Evaluate computes the RMSE of a predictor over windows, pooling every
// horizon step (the paper's Table 4 metric, in scaled units). Windows with
// non-finite inputs or targets are skipped rather than letting one
// corrupted sample turn the whole metric into NaN; use EvaluateSkipping to
// learn how many were dropped.
func Evaluate(p Predictor, ws []trace.Window) float64 {
	rmse, _ := EvaluateSkipping(p, ws)
	return rmse
}

// EvaluateSkipping is Evaluate returning the count of skipped invalid
// windows alongside the RMSE over the valid ones.
func EvaluateSkipping(p Predictor, ws []trace.Window) (rmse float64, skipped int) {
	var preds, truths []float64
	for _, w := range ws {
		if !ValidWindow(w) {
			skipped++
			continue
		}
		y := p.Predict(w)
		if preds == nil {
			// Size once off the first horizon; avoids append regrowth.
			preds = make([]float64, 0, len(ws)*len(y))
			truths = make([]float64, 0, len(ws)*len(y))
		}
		preds = append(preds, y...)
		truths = append(truths, w.Y...)
	}
	return stats.RMSE(preds, truths), skipped
}

// AggFeatureDim is the per-step feature dimension the CA-blind baselines
// consume: the aggregate throughput history plus the serving (primary)
// cell's radio-quality features. Crucially it contains neither per-CC
// decomposition, nor the RRC event channel, nor the CC count — prior work
// [28, 9, 32] predicts overall throughput from exactly this kind of
// serving-cell view, which is the gap Prism5G exploits.
const AggFeatureDim = 9

// AggFeatures extracts the baseline feature sequence [T][AggFeatureDim]
// from a window.
func AggFeatures(w trace.Window) [][]float64 {
	T := len(w.AggHist)
	flat := make([]float64, T*AggFeatureDim)
	out := make([][]float64, T)
	for t := 0; t < T; t++ {
		out[t] = flat[t*AggFeatureDim : (t+1)*AggFeatureDim]
		fillAggFeatures(out[t], w, t)
	}
	return out
}

// aggFeaturesInto is AggFeatures drawing the sequence from an arena so hot
// paths build it without allocating.
func aggFeaturesInto(ar *nn.Arena, w trace.Window) [][]float64 {
	T := len(w.AggHist)
	out := ar.Rows(T)
	flat := ar.Floats(T * AggFeatureDim)
	for t := 0; t < T; t++ {
		out[t] = flat[t*AggFeatureDim : (t+1)*AggFeatureDim]
		fillAggFeatures(out[t], w, t)
	}
	return out
}

// fillAggFeatures writes step t's AggFeatureDim features into row.
func fillAggFeatures(row []float64, w trace.Window, t int) {
	pc := w.X[0][t] // PCell slot
	row[0] = w.AggHist[t]
	row[1] = pc[trace.FRSRP]
	row[2] = pc[trace.FRSRQ]
	row[3] = pc[trace.FSINR]
	row[4] = pc[trace.FCQI]
	row[5] = pc[trace.FBLER]
	row[6] = pc[trace.FRB]
	row[7] = pc[trace.FLayers]
	row[8] = pc[trace.FMCS]
}

// FlattenAggFeatures returns the [T*AggFeatureDim] vector the tree-based
// baselines consume (the paper's R^(T,k) -> R^(T*k,1) reshaping).
func FlattenAggFeatures(w trace.Window) []float64 {
	seq := AggFeatures(w)
	out := make([]float64, 0, len(seq)*AggFeatureDim)
	for _, row := range seq {
		out = append(out, row...)
	}
	return out
}

// TrainOpts configures neural-network training.
type TrainOpts struct {
	Epochs int
	// Batch is the minibatch size (<= 0 means DefaultTrainOpts' 128).
	Batch    int
	LR       float64
	Patience int // early-stop after this many non-improving epochs
	Seed     uint64
	// MaxRetries bounds divergence recoveries: on a non-finite or
	// exploding validation loss the loop rolls back to the best (or
	// initial) weights, halves the LR via LRBackoff and restarts the
	// optimizer. 0 means DefaultTrainOpts' 2; negative disables recovery.
	MaxRetries int
	// LRBackoff multiplies the learning rate on each retry (0 = 0.5).
	LRBackoff float64
	// DivergeFactor flags an epoch as diverged when its loss exceeds
	// this multiple of the best seen so far (0 = 50).
	DivergeFactor float64
}

// DefaultTrainOpts mirrors the paper's setup (Adam lr 0.01, batch 128, max
// 200 epochs) with early stopping, plus bounded divergence recovery.
func DefaultTrainOpts() TrainOpts {
	return TrainOpts{Epochs: 200, Batch: 128, LR: 0.01, Patience: 12, Seed: 1,
		MaxRetries: 2, LRBackoff: 0.5, DivergeFactor: 50}
}

// withDefaults is the one place TrainOpts defaults are applied: a zero
// Epochs selects DefaultTrainOpts wholesale, and each unset or out-of-range
// Batch, MaxRetries, LRBackoff and DivergeFactor takes its default.
func (o TrainOpts) withDefaults() TrainOpts {
	d := DefaultTrainOpts()
	if o.Epochs == 0 {
		return d
	}
	if o.Batch <= 0 {
		o.Batch = d.Batch
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = d.MaxRetries
	}
	if o.LRBackoff <= 0 || o.LRBackoff >= 1 {
		o.LRBackoff = d.LRBackoff
	}
	if o.DivergeFactor <= 1 {
		o.DivergeFactor = d.DivergeFactor
	}
	return o
}

// SeqModel is the contract the shared training loop needs. It is
// implemented by the neural baselines here and by Prism5G in internal/core.
type SeqModel interface {
	Params() []*nn.Param
	// Forward runs one window and returns the prediction, a view into the
	// returned Tape valid until its Backward. It only reads the weights,
	// so forwards may run concurrently with each other, never with a
	// Backward or an optimizer step. train selects the training pass
	// (Lumos5G decodes with teacher forcing); inference is Forward(w,
	// false), see Predict.
	Forward(w trace.Window, train bool) (y []float64, t Tape)
}

// Tape is one forward pass: the model's pooled scratch, holding the window
// it ran on.
type Tape interface {
	// Backward backpropagates the window's MSE loss scaled by gScale into
	// Param.Grad, then returns the scratch to the model's pool. gScale 0
	// only releases the scratch, and is the only value allowed for an
	// inference pass. Call it exactly once. It only accumulates, so a
	// fixed order of Backwards on one goroutine fixes every gradient bit.
	Backward(gScale float64)
}

// Predict is m's inference pass: a freshly allocated forecast the caller
// owns, with the scratch already released.
func Predict(m SeqModel, w trace.Window) []float64 {
	y, t := m.Forward(w, false)
	y = append([]float64(nil), y...)
	t.Backward(0)
	return y
}

// TrainLoop runs mini-batch Adam training with early stopping on val RMSE,
// restoring the best-seen weights (the paper reports the model selected on
// validation performance).
//
// The loop is divergence-hardened: windows with non-finite inputs or
// targets are filtered up front, and when an epoch ends in a NaN/Inf or
// exploding loss the loop rolls back to the best (or initial) weights,
// restarts Adam at LRBackoff times the rate and tries again, at most
// MaxRetries times. Degraded field data makes both failure modes routine
// rather than exceptional.
func TrainLoop(m SeqModel, train, val []trace.Window, opts TrainOpts) TrainReport {
	rep, _ := trainLoop(m, newSliceSource(train), newSliceSource(val), opts)
	return rep
}

// batchSource feeds trainLoop its windows. Both methods yield windows that
// are all valid (see ValidWindow) in batches of at most batch; a yielded
// slice is only valid until yield returns.
type batchSource interface {
	// epoch yields one epoch's training minibatches, shuffled with r, and
	// returns how many windows it yielded.
	epoch(r *rng.Source, batch int, yield func([]trace.Window)) (int, error)
	// score yields every window once, in order, for evaluation.
	score(batch int, yield func([]trace.Window)) error
}

// sliceSource is the in-memory batchSource behind TrainLoop. Windows are
// filtered once up front; every epoch reshuffles one persistent
// permutation in place (never reset, not even across divergence retries)
// and gathers each minibatch into a reused buffer.
type sliceSource struct {
	ws    []trace.Window
	order []int
	buf   []trace.Window
}

func newSliceSource(ws []trace.Window) *sliceSource {
	ws, _ = FilterValid(ws)
	return &sliceSource{ws: ws}
}

func (s *sliceSource) epoch(r *rng.Source, batch int, yield func([]trace.Window)) (int, error) {
	if s.order == nil {
		s.order = make([]int, len(s.ws))
		for i := range s.order {
			s.order[i] = i
		}
		s.buf = make([]trace.Window, 0, min(batch, len(s.ws)))
	}
	order := s.order
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for bi := 0; bi < len(order); bi += batch {
		s.buf = s.buf[:0]
		for _, wi := range order[bi:min(bi+batch, len(order))] {
			s.buf = append(s.buf, s.ws[wi])
		}
		yield(s.buf)
	}
	return len(order), nil
}

func (s *sliceSource) score(batch int, yield func([]trace.Window)) error {
	for bi := 0; bi < len(s.ws); bi += batch {
		yield(s.ws[bi:min(bi+batch, len(s.ws))])
	}
	return nil
}

// sumSqErr accumulates squared prediction error over minibatches.
type sumSqErr struct {
	se float64
	n  int
}

// addOne adds one sample's squared horizon errors. Summing every sample
// into one running total in sample order, never per-batch subtotals, keeps
// the pooled RMSE bit-identical however the windows are batched.
func (a *sumSqErr) addOne(y, truth []float64) {
	for i := range y {
		d := y[i] - truth[i]
		a.se += d * d
		a.n++
	}
}

// rmse returns the pooled RMSE, NaN when nothing was added.
func (a *sumSqErr) rmse() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return math.Sqrt(a.se / float64(a.n))
}

// trainLoop is the one training loop behind TrainLoop and TrainLoopStream;
// the sources decide only which windows each minibatch holds. A source
// error aborts training and is returned alongside the best-so-far report.
func trainLoop(m SeqModel, train, val batchSource, opts TrainOpts) (TrainReport, error) {
	opts = opts.withDefaults()
	start := time.Now()
	sp := obs.StartSpan("train.loop")
	src := rng.New(opts.Seed ^ 0xfeed)
	ps := m.Params()
	initW := snapshotInto(nil, ps)
	bestVal := math.Inf(1)
	var bestW [][]float64
	epochs := 0
	retries := 0
	diverged := false
	var err error

	pl := newPipeline(m, opts.Batch)
	defer pl.stop()
	// The yield callbacks are built once per run: the sources are
	// interfaces, so whatever they capture lives on the heap.
	var scoreSE sumSqErr
	scoreBatch := func(b []trace.Window) { pl.scoreBatch(b, &scoreSE) }
	score := func(s batchSource) (float64, error) {
		scoreSE = sumSqErr{}
		if err := s.score(opts.Batch, scoreBatch); err != nil {
			return math.NaN(), err
		}
		return scoreSE.rmse(), nil
	}
	var opt *nn.Adam
	var trainSE sumSqErr
	var gradN float64
	step := func(b []trace.Window) {
		pl.trainBatch(b, 1.0/float64(len(b)), &trainSE)
		// The epoch's last batch is not known until the source runs dry,
		// so read the norm before every Step (which zeroes the
		// accumulators) and keep the latest.
		gradN = gradNorm(ps)
		opt.Step()
	}

	lr := opts.LR
	var epochStats []EpochStat
attempts:
	for attempt := 0; ; attempt++ {
		opt = nn.NewAdam(ps, lr)
		badEpochs := 0
		diverged = false
		for ep := 0; ep < opts.Epochs; ep++ {
			epochs++
			epStart := time.Now()
			trainSE, gradN = sumSqErr{}, math.NaN()
			var seen int
			var v float64
			if seen, err = train.epoch(src, opts.Batch, step); err != nil {
				break attempts
			}
			if v, err = score(val); err != nil {
				break attempts
			}
			if math.IsNaN(v) && seen > 0 {
				if v, err = score(train); err != nil {
					break attempts
				}
			}
			es := EpochStat{Epoch: epochs, TrainRMSE: trainSE.rmse(), ValRMSE: v,
				LR: lr, GradNorm: gradN, Duration: time.Since(epStart)}
			epochStats = append(epochStats, es)
			if r := obs.Default(); r.Enabled() {
				r.Add("train.epochs", 1)
				r.Observe("train.epoch_s", es.Duration.Seconds())
				r.Emit("train.epoch", map[string]any{
					"epoch": es.Epoch, "train_rmse": es.TrainRMSE, "val_rmse": es.ValRMSE,
					"lr": es.LR, "grad_norm": es.GradNorm, "dur_s": es.Duration.Seconds(),
				})
			}
			if seen > 0 && (!finite(v) || (finite(bestVal) && v > opts.DivergeFactor*bestVal)) {
				diverged = true
				break
			}
			if v < bestVal-1e-6 {
				bestVal = v
				bestW = snapshotInto(bestW, ps)
				badEpochs = 0
			} else {
				badEpochs++
				if badEpochs >= opts.Patience {
					break
				}
			}
		}
		if !diverged || retries >= opts.MaxRetries || opts.MaxRetries < 0 {
			break
		}
		// Roll back to the last known-good weights (the initialization if
		// training never produced a finite loss) and back off the LR.
		retries++
		if bestW != nil {
			restore(ps, bestW)
		} else {
			restore(ps, initW)
		}
		lr *= opts.LRBackoff
		if r := obs.Default(); r.Enabled() {
			r.Add("train.rollbacks", 1)
			r.Emit("train.rollback", map[string]any{
				"attempt": attempt + 1, "next_lr": lr, "best_val": bestVal,
			})
		}
	}
	if bestW != nil {
		restore(ps, bestW)
	} else if diverged || err != nil {
		// Never saw a finite loss: the initialization is still the best
		// known state, and at least its forward pass is finite.
		restore(ps, initW)
	}
	trainRMSE := math.NaN()
	if err == nil {
		trainRMSE, err = score(train)
	}
	sp.EndWith(map[string]any{"epochs": epochs, "retries": retries,
		"diverged": diverged, "stream_err": err != nil})
	return TrainReport{
		Epochs:     epochs,
		TrainRMSE:  trainRMSE,
		ValRMSE:    bestVal,
		Duration:   time.Since(start),
		EpochStats: epochStats,
		Retries:    retries,
		Diverged:   diverged,
	}, err
}

// gradNorm returns the L2 norm over every parameter gradient accumulator.
func gradNorm(ps []*nn.Param) float64 {
	var s float64
	for _, p := range ps {
		for _, g := range p.Grad {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// snapshotInto copies the weights into dst, allocating it as one slab on
// first use; later calls within the run reuse it (the parameter set never
// changes).
func snapshotInto(dst [][]float64, ps []*nn.Param) [][]float64 {
	if len(dst) != len(ps) {
		n := 0
		for _, p := range ps {
			n += p.Size()
		}
		flat := make([]float64, n)
		dst = make([][]float64, len(ps))
		for i, p := range ps {
			dst[i], flat = flat[:p.Size():p.Size()], flat[p.Size():]
		}
	}
	for i, p := range ps {
		copy(dst[i], p.W)
	}
	return dst
}

func restore(ps []*nn.Param, w [][]float64) {
	for i, p := range ps {
		copy(p.W, w[i])
	}
}
