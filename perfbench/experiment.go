package main

import (
	"fmt"
	"math"
	"time"

	"prism5g/internal/core"
	"prism5g/internal/experiments"
	"prism5g/internal/ml"
	"prism5g/internal/mobility"
	"prism5g/internal/predictors"
	"prism5g/internal/qoe"
	"prism5g/internal/ran"
	"prism5g/internal/rng"
	"prism5g/internal/sim"
	"prism5g/internal/spectrum"
	"prism5g/internal/trace"
)

// expSpec is the Table 4 cell the experiment workload runs: OpZ, driving,
// long granularity, the sub-dataset RuntimeComparison (§6.1) also uses.
var expSpec = sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: sim.Long}

// expConfig is QuickMLConfig with the Table 4 default columns. GBDT and RF
// are left out: they take longer than all neural models together and are
// not the models the paper is about. Workers 1 is the oracle's setting;
// the workload itself builds traces on every CPU and trains serially.
func expConfig(seed uint64) experiments.MLConfig {
	cfg := experiments.QuickMLConfig(seed)
	cfg.Models = []string{"Prophet", "LSTM", "TCN", "Lumos5G", "Prism5G"}
	cfg.Workers = 1
	return cfg
}

// expModel builds a Table 4 column the way experiments.Table4Cell does;
// the oracle check pins the two to the same RMSE bits.
func expModel(name string, ds *trace.Dataset, cfg experiments.MLConfig) predictors.Predictor {
	topts := predictors.TrainOpts{Epochs: cfg.Epochs, Batch: 128, LR: 0.01, Patience: cfg.Patience, Seed: cfg.Seed}
	switch name {
	case "Prophet":
		return predictors.NewProphetPredictor(ds, ml.DefaultProphetOpts())
	case "LSTM":
		return predictors.NewLSTMPredictor(cfg.Hidden, 10, topts)
	case "TCN":
		return predictors.NewTCNPredictor(cfg.Hidden, 10, topts)
	case "Lumos5G":
		return predictors.NewLumos5G(cfg.Hidden, 10, topts)
	case "Prism5G":
		opts := core.DefaultOptions()
		opts.Hidden = cfg.Hidden
		opts.Train = topts
		return core.New(opts, 10)
	}
	panic("perfbench: unknown model " + name)
}

// expPass is one run of the experiment journey.
type expPass struct {
	wall    time.Duration
	rmse    []float64
	reports []predictors.TrainReport
	qoe     []float64 // every ViVo, ABR and cloud-gaming figure, for the finiteness check
	prism   predictors.Predictor
	scaler  *trace.Scaler
}

// timedPredictor times each Predict call from outside the model.
type timedPredictor struct {
	predictors.Predictor
	us *[]float64
}

func (p timedPredictor) Predict(w trace.Window) []float64 {
	t0 := time.Now()
	y := p.Predictor.Predict(w)
	*p.us = append(*p.us, float64(time.Since(t0))/1e3)
	return y
}

// countedBW counts the QoE apps' bandwidth forecasts.
type countedBW struct {
	qoe.BandwidthPredictor
	n *int
}

func (c countedBW) PredictMbps(now, horizonS float64) float64 {
	*c.n++
	return c.BandwidthPredictor.PredictMbps(now, horizonS)
}

// experimentPass runs sim.Build, the prepare step, serial training of the
// five models, Evaluate on test and the three QoE apps with the trained
// Prism5G as bandwidth estimator. With the tracer on it also records the
// per-layer metrics.
func (b *bench) experimentPass(cfg experiments.MLConfig, traced bool) expPass {
	tr := b.tr
	layer := map[string]float64{}
	root := tr.start("experiment.pass", 0)

	// Allocation counts stop the world, so untraced passes skip them.
	mem := func() memSnap {
		if traced {
			return readMem()
		}
		return memSnap{}
	}
	m0 := mem()
	t := tr.start("sim.build", root.id)
	ds := sim.Build(expSpec, sim.BuildOpts{Traces: cfg.Traces, SamplesPerTrace: cfg.SamplesPerTrace,
		Seed: cfg.Seed, Modem: ran.ModemX70, Workers: b.procs})
	simS := t.end().Seconds()
	samples := 0
	for _, tr := range ds.Traces {
		samples += len(tr.Samples)
	}
	layer["sim.build_s"] = simS
	layer["sim.samples_per_s"] = float64(samples) / simS
	layer["sim.allocs_per_sample"] = mem().mallocsSince(m0) / float64(samples)

	prep := tr.start("trace.prepare", root.id)
	t = tr.start("trace.scaler_fit", prep.id)
	sc := &trace.Scaler{}
	sc.Fit(ds.Traces)
	layer["trace.scaler_fit_s"] = t.end().Seconds()
	t = tr.start("trace.windows", prep.id)
	ws := trace.Windows(ds, sc, trace.WindowOpts{History: 10, Horizon: 10, Stride: cfg.Stride})
	layer["trace.windows_per_s"] = float64(len(ws)) / t.end().Seconds()
	train, val, test := trace.Split(ws, 0.5, 0.2, rng.New(cfg.Seed^0x5b1d))
	layer["trace.prepare_s"] = prep.end().Seconds()

	p := expPass{scaler: sc}
	var trainMallocs, trainWindows float64
	for _, name := range cfg.Models {
		m := expModel(name, ds, cfg)
		m0 := mem()
		t := tr.start("predictors.train."+name, root.id)
		rep := m.Train(train, val)
		trainS := t.end().Seconds()
		mallocs := mem().mallocsSince(m0)
		if rep.Epochs > 0 {
			windows := float64(rep.Epochs * len(train))
			layer["predictors.train_s."+name] = trainS
			layer["predictors.train_windows_per_s."+name] = windows / trainS
			layer["predictors.epochs."+name] = float64(rep.Epochs)
			layer["predictors.retries."+name] = float64(rep.Retries)
			trainMallocs += mallocs
			trainWindows += windows
		}

		var us []float64
		eval := m
		if traced {
			eval = timedPredictor{m, &us}
		}
		t = tr.start("predictors.evaluate."+name, root.id)
		p.rmse = append(p.rmse, predictors.Evaluate(eval, test))
		t.end()
		layer["predictors.predict_us."+name] = median(us)
		p.reports = append(p.reports, rep)
		if name == "Prism5G" {
			p.prism = m
		}
	}
	layer["predictors.allocs_per_train_window"] = trainMallocs / trainWindows

	calls := 0
	wopts := trace.WindowOpts{History: 10, Horizon: 10, Stride: 1}
	bw := func(ti int) qoe.BandwidthPredictor {
		return countedBW{qoe.NewModelPredictor("Prism5G", p.prism, &ds.Traces[ti], sc, wopts), &calls}
	}
	t = tr.start("qoe.vivo", root.id)
	for ti := range ds.Traces {
		r := qoe.RunViVo(qoe.DefaultViVoConfig(), qoe.NewChannel(&ds.Traces[ti]), bw(ti))
		p.qoe = append(p.qoe, r.AvgQuality, r.StallTimeS)
	}
	layer["qoe.vivo_s"] = t.end().Seconds()
	t = tr.start("qoe.abr", root.id)
	for ti := range ds.Traces {
		r := qoe.RunABR(qoe.DefaultABRConfig(), qoe.NewChannel(&ds.Traces[ti]), bw(ti))
		p.qoe = append(p.qoe, r.AvgMbps, r.StallTimeS)
	}
	layer["qoe.abr_s"] = t.end().Seconds()
	t = tr.start("qoe.cloudgaming", root.id)
	for ti := range ds.Traces {
		r := qoe.RunCloudGaming(qoe.DefaultCloudGamingConfig(), qoe.NewChannel(&ds.Traces[ti]), bw(ti))
		p.qoe = append(p.qoe, r.AvgBitrateMbps, r.LateTimeS, r.MissRate)
	}
	layer["qoe.cloudgaming_s"] = t.end().Seconds()
	layer["qoe.predictor_calls"] = float64(calls)

	p.wall = root.end()
	if traced {
		for k, v := range layer {
			b.layer[k] = v
		}
	}
	return p
}

// runExperiment measures the experiment journey, serves its Prism5G, and
// checks every pass's RMSEs against experiments.Table4Cell.
func runExperiment(b *bench) error {
	camp, err := setupRepeated(b, func(bool) (*campaign, error) { return buildCampaign(b.seed, b.procs) })
	if err != nil {
		return err
	}
	cfg := expConfig(b.seed)

	m0 := readMem()
	var last expPass
	var passes []expPass
	walls, tracedWalls := b.passes(0.7, func(traced bool) time.Duration {
		last = b.experimentPass(cfg, traced)
		passes = append(passes, last)
		return last.wall
	})
	e := newEndpoint("Prism5G", last.prism, last.scaler, camp)
	e.warm()
	b.measureServing(e, b.budget*3/10)
	b.finishPasses(walls, tracedWalls, m0)

	oracle := experiments.Table4Cell(expSpec, cfg)
	for _, p := range passes {
		err := checkExperiment(cfg.Models, p.rmse, p.reports, p.qoe, oracle)
		b.check(err)
		b.op(err != nil)
	}
	return nil
}

// checkExperiment checks one pass: every RMSE equals Table4Cell's bit for
// bit, every RMSE and QoE figure is finite, and no training diverged.
func checkExperiment(models []string, rmse []float64, reps []predictors.TrainReport, qoeFigures []float64, oracle []experiments.CellResult) error {
	if len(rmse) != len(models) || len(oracle) != len(models) {
		return fmt.Errorf("have %d RMSEs and %d oracle cells for %d models", len(rmse), len(oracle), len(models))
	}
	for i, name := range models {
		if oracle[i].Model != name {
			return fmt.Errorf("oracle cell %d is %s, want %s", i, oracle[i].Model, name)
		}
		if math.IsNaN(rmse[i]) || math.IsInf(rmse[i], 0) {
			return fmt.Errorf("%s RMSE is %v", name, rmse[i])
		}
		if math.Float64bits(rmse[i]) != math.Float64bits(oracle[i].RMSE) {
			return fmt.Errorf("%s RMSE %v differs from Table4Cell's %v", name, rmse[i], oracle[i].RMSE)
		}
		if reps[i].Diverged {
			return fmt.Errorf("%s training diverged", name)
		}
	}
	for i, v := range qoeFigures {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("QoE figure %d is %v", i, v)
		}
	}
	return nil
}
