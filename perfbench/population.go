package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"time"

	"prism5g/internal/mobility"
	"prism5g/internal/pop"
	"prism5g/internal/predictors"
	"prism5g/internal/ran"
	"prism5g/internal/spectrum"
	"prism5g/internal/trace"
)

const (
	// popUEs is 4 shards of 64: the 2 shard workers of a 2-CPU host get
	// equal work.
	popUEs      = 256
	popShard    = 64
	popDuration = 30.0
	// popValEvery routes every 5th trace to the validation spill, the
	// trace-level split prismeval -population uses.
	popValEvery = 5
)

// popConfig is prismeval -population's urban walking campaign with its
// rush profile, at popUEs UEs.
func popConfig(seed uint64, workers int) pop.Config {
	return pop.Config{
		Operator: spectrum.OpZ, Scenario: mobility.Urban, Mobility: mobility.Walking,
		Modem: ran.ModemX70, Population: popUEs, ShardSize: popShard,
		DurationS: popDuration, StepS: 1, Seed: seed, Workers: workers,
		Rush: pop.RushProfile{Base: 0.4, Peak: 1, PeakAtS: popDuration / 2, WidthS: popDuration / 4},
	}
}

// splitSink sends every popValEvery-th trace to val and the rest to train.
type splitSink struct {
	train, val   trace.Sink
	nTrain, nVal int
}

func (s *splitSink) Emit(tr trace.Trace) error {
	if (s.nTrain+s.nVal)%popValEvery == popValEvery-1 {
		s.nVal++
		return s.val.Emit(tr)
	}
	s.nTrain++
	return s.train.Emit(tr)
}

func (s *splitSink) Close() error {
	return errors.Join(s.train.Close(), s.val.Close())
}

// timedSink times every Emit as a child span of the pop.Build span.
type timedSink struct {
	trace.Sink
	tr     *tracer
	parent int64
	total  time.Duration
}

func (s *timedSink) Emit(tr trace.Trace) error {
	t := s.tr.start("trace.spill_emit", s.parent)
	err := s.Sink.Emit(tr)
	s.total += t.end()
	return err
}

// timedStream times every Next as a child span of the training span and
// counts the windows it yields.
type timedStream struct {
	trace.WindowStream
	tr      *tracer
	parent  int64
	total   time.Duration
	windows int
}

func (s *timedStream) Next(max int) ([]trace.Window, error) {
	t := s.tr.start("trace.stream_next", s.parent)
	ws, err := s.WindowStream.Next(max)
	s.total += t.end()
	s.windows += len(ws)
	return ws, err
}

// popPass is one run of the population journey.
type popPass struct {
	wall, build  time.Duration
	report       pop.Report
	nTrain, nVal int
	fitRead      int
	trainRep     predictors.TrainReport
	model        predictors.Predictor
	scaler       *trace.Scaler
}

// populationPass runs pop.Build into the JSONL spill, fits the scaler
// incrementally from the training spill and trains the LSTM baseline from
// streamed windows.
func (b *bench) populationPass(dir string, traced bool) (popPass, error) {
	tr := b.tr
	layer := map[string]float64{}
	var p popPass
	root := tr.start("population.pass", 0)
	trainPath, valPath := filepath.Join(dir, "train.jsonl"), filepath.Join(dir, "val.jsonl")
	trainSink, err := trace.CreateJSONLSink(trainPath)
	if err != nil {
		return p, err
	}
	valSink, err := trace.CreateJSONLSink(valPath)
	if err != nil {
		trainSink.Close()
		return p, err
	}
	split := &splitSink{train: trainSink, val: valSink}

	bt := tr.start("pop.build", root.id)
	var sink trace.Sink = split
	spill := &timedSink{Sink: split, tr: tr, parent: bt.id}
	if traced {
		sink = spill
	}
	p.report, err = pop.Build(popConfig(b.seed, b.procs), sink)
	p.build = bt.end()
	if err = errors.Join(err, split.Close()); err != nil {
		return p, fmt.Errorf("population build: %w", err)
	}
	p.nTrain, p.nVal = split.nTrain, split.nVal
	layer["pop.build_s"] = tr.selfTime(bt.id, p.build).Seconds()
	layer["pop.ues_per_s"] = float64(p.report.Traces) / p.build.Seconds()
	layer["pop.max_attached"] = float64(p.report.MaxAttached)
	layer["trace.spill_s"] = spill.total.Seconds()
	if traced {
		mib, err := fileMiB(trainPath, valPath)
		if err != nil {
			return p, err
		}
		layer["trace.spill_mib"] = mib
	}

	src, err := trace.OpenJSONLSource(trainPath)
	if err != nil {
		return p, err
	}
	defer src.Close()
	ft := tr.start("trace.scaler_fit", root.id)
	sc := &trace.Scaler{}
	sc.BeginFit()
	for {
		t, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return p, fmt.Errorf("read back training spill: %w", err)
		}
		sc.ObserveTrace(t)
		p.fitRead++
	}
	sc.FinishFit()
	layer["trace.scaler_fit_s"] = ft.end().Seconds()
	if err := src.Reset(); err != nil {
		return p, err
	}
	valSrc, err := trace.OpenJSONLSource(valPath)
	if err != nil {
		return p, err
	}
	defer valSrc.Close()

	opts := trace.WindowOpts{History: 10, Horizon: 10, Stride: 1}
	topts := predictors.TrainOpts{Epochs: 3, Batch: 64, LR: 0.01, Patience: 6, Seed: b.seed}
	m := predictors.NewLSTMPredictor(16, 10, topts)
	var mem0 memSnap
	if traced {
		mem0 = readMem()
	}
	st := tr.start("predictors.train_stream.LSTM", root.id)
	var trainWS, valWS trace.WindowStream = trace.StreamWindows(src, sc, opts), trace.StreamWindows(valSrc, sc, opts)
	tTrain := &timedStream{WindowStream: trainWS, tr: tr, parent: st.id}
	tVal := &timedStream{WindowStream: valWS, tr: tr, parent: st.id}
	if traced {
		trainWS, valWS = tTrain, tVal
	}
	p.trainRep, err = predictors.TrainLoopStream(m, trainWS, valWS, topts)
	trainD := st.end()
	if err != nil {
		return p, fmt.Errorf("streamed training: %w", err)
	}
	p.model, p.scaler = m, sc
	if traced {
		next := tTrain.total + tVal.total
		layer["predictors.allocs_per_train_window"] = readMem().mallocsSince(mem0) / float64(tTrain.windows)
		layer["predictors.train_s.LSTM"] = trainD.Seconds()
		layer["predictors.train_windows_per_s.LSTM"] = float64(tTrain.windows) / trainD.Seconds()
		layer["predictors.epochs.LSTM"] = float64(p.trainRep.Epochs)
		layer["predictors.retries.LSTM"] = float64(p.trainRep.Retries)
		layer["trace.stream_next_s"] = next.Seconds()
		layer["trace.windows_per_s"] = float64(tTrain.windows+tVal.windows) / next.Seconds()
		layer["predictors.stream_train_self_s"] = (trainD - next).Seconds()
		for k, v := range layer {
			b.layer[k] = v
		}
	}
	p.wall = root.end()
	return p, nil
}

func fileMiB(paths ...string) (float64, error) {
	var n int64
	for _, path := range paths {
		fi, err := os.Stat(path)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return float64(n) / (1 << 20), nil
}

// spillDigest is what the population checks compare: the SHA-256 of each
// spill file and the traces each holds when read back.
type spillDigest struct {
	train, val   [sha256.Size]byte
	nTrain, nVal int
}

// digestFiles reads both spill files back.
func digestFiles(dir string) (spillDigest, error) {
	var d spillDigest
	for _, f := range []struct {
		name string
		sum  *[sha256.Size]byte
		n    *int
	}{{"train.jsonl", &d.train, &d.nTrain}, {"val.jsonl", &d.val, &d.nVal}} {
		path := filepath.Join(dir, f.name)
		raw, err := os.ReadFile(path)
		if err != nil {
			return d, err
		}
		*f.sum = sha256.Sum256(raw)
		src, err := trace.OpenJSONLSource(path)
		if err != nil {
			return d, err
		}
		for {
			_, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				src.Close()
				return d, fmt.Errorf("read back %s: %w", f.name, err)
			}
			*f.n++
		}
		src.Close()
	}
	return d, nil
}

// referenceBuild builds the same population at workers=1 into hashing
// sinks; it returns the digest and how long pop.Build took.
func (b *bench) referenceBuild() (spillDigest, time.Duration, error) {
	var d spillDigest
	ht, hv := sha256.New(), sha256.New()
	split := &splitSink{train: trace.NewJSONLSink(ht), val: trace.NewJSONLSink(hv)}
	t := b.tr.start("pop.build.workers1", 0)
	_, err := pop.Build(popConfig(b.seed, 1), split)
	took := t.end()
	if err = errors.Join(err, split.Close()); err != nil {
		return d, took, fmt.Errorf("reference build: %w", err)
	}
	sum := func(h hash.Hash) (s [sha256.Size]byte) { copy(s[:], h.Sum(nil)); return s }
	d.train, d.val, d.nTrain, d.nVal = sum(ht), sum(hv), split.nTrain, split.nVal
	return d, took, nil
}

// checkPopulation checks one pass against its own spill read back and the
// workers=1 reference: every UE's trace was spilled, every spilled trace
// reads back, and the spill bytes do not depend on the worker count.
func checkPopulation(p popPass, got, ref spillDigest) error {
	if p.report.Traces != popUEs || p.nTrain+p.nVal != popUEs {
		return fmt.Errorf("population %d: report counts %d traces, sink got %d", popUEs, p.report.Traces, p.nTrain+p.nVal)
	}
	if got.nTrain != p.nTrain || got.nVal != p.nVal || p.fitRead != p.nTrain {
		return fmt.Errorf("spilled %d+%d traces, read back %d+%d (scaler fit read %d)",
			p.nTrain, p.nVal, got.nTrain, got.nVal, p.fitRead)
	}
	if got.train != ref.train || got.val != ref.val || got.nTrain != ref.nTrain || got.nVal != ref.nVal {
		return fmt.Errorf("spill at workers=nproc differs from workers=1")
	}
	if p.trainRep.Diverged {
		return fmt.Errorf("streamed LSTM training diverged")
	}
	return nil
}

// runPopulation measures the population journey, serves its streamed
// LSTM, and checks every pass's spill.
func runPopulation(b *bench) error {
	camp, err := setupRepeated(b, func(bool) (*campaign, error) { return buildCampaign(b.seed, b.procs) })
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "population-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	m0 := readMem()
	var last popPass
	var digests []spillDigest
	var passes []popPass
	var builds []time.Duration
	var passErr error
	walls, tracedWalls := b.passes(0.7, func(traced bool) time.Duration {
		p, err := b.populationPass(dir, traced)
		passErr = errors.Join(passErr, err)
		d, derr := digestFiles(dir)
		passErr = errors.Join(passErr, derr)
		if !traced {
			builds = append(builds, p.build)
		}
		last = p
		passes = append(passes, p)
		digests = append(digests, d)
		return p.wall
	})
	if passErr != nil {
		return passErr
	}
	e := newEndpoint("LSTM", last.model, last.scaler, camp)
	e.warm()
	b.measureServing(e, b.budget*3/10)
	b.finishPasses(walls, tracedWalls, m0)

	b.tr.setOn(b.traced)
	ref, took, err := b.referenceBuild()
	b.tr.setOn(false)
	if err != nil {
		return err
	}
	if b.traced {
		b.layer["par.speedup"] = took.Seconds() / median(seconds(builds))
	}
	for i, p := range passes {
		err := checkPopulation(p, digests[i], ref)
		b.check(err)
		b.op(err != nil)
	}
	return nil
}
