package main

import (
	"fmt"

	"prism5g/internal/core"
	"prism5g/internal/mobility"
	"prism5g/internal/predictors"
	"prism5g/internal/ran"
	"prism5g/internal/rng"
	"prism5g/internal/sim"
	"prism5g/internal/spectrum"
	"prism5g/internal/trace"
)

// serveEpochs is the training budget of the served Prism5G: prismserve's
// -epochs 3, which the serving measurements in ROADMAP.md also used.
const serveEpochs = 3

// serveSetup is prismserve's boot with its default flags: a 4 x 120
// sample long-granularity campaign, the facade's Prepare split, the model
// trained on it, behind serve.New with the default Config. It then builds
// the load campaign and warms every session.
func (b *bench) serveSetup(model string, traced bool) (*endpoint, error) {
	tr := b.tr
	layer := map[string]float64{}
	var mem0 memSnap
	if traced {
		mem0 = readMem()
	}
	t := tr.start("sim.build", 0)
	ds := sim.Build(sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: sim.Long},
		sim.BuildOpts{Traces: 4, SamplesPerTrace: 120, Seed: b.seed, Modem: ran.ModemX70, Workers: b.procs})
	simS := t.end().Seconds()
	samples := 0
	for _, tr := range ds.Traces {
		samples += len(tr.Samples)
	}
	layer["sim.build_s"] = simS
	layer["sim.samples_per_s"] = float64(samples) / simS
	if traced {
		layer["sim.allocs_per_sample"] = readMem().mallocsSince(mem0) / float64(samples)
	}

	prep := tr.start("trace.prepare", 0)
	t = tr.start("trace.scaler_fit", prep.id)
	sc := &trace.Scaler{}
	sc.Fit(ds.Traces)
	layer["trace.scaler_fit_s"] = t.end().Seconds()
	t = tr.start("trace.windows", prep.id)
	ws := trace.Windows(ds, sc, trace.DefaultWindowOpts())
	layer["trace.windows_per_s"] = float64(len(ws)) / t.end().Seconds()
	train, val, _ := trace.Split(ws, 0.5, 0.2, rng.New(b.seed))
	layer["trace.prepare_s"] = prep.end().Seconds()

	var m predictors.Predictor
	switch model {
	case "Prism5G":
		opts := core.DefaultOptions()
		opts.Hidden = 32
		opts.Train = predictors.DefaultTrainOpts()
		opts.Train.Epochs = serveEpochs
		opts.Train.Seed = b.seed
		m = core.New(opts, history)
	case "HarmonicMean":
		m = &predictors.HarmonicMean{Horizon: trace.DefaultWindowOpts().Horizon}
	default:
		return nil, fmt.Errorf("unknown served model %q", model)
	}
	if traced {
		mem0 = readMem()
	}
	t = tr.start("predictors.train."+model, 0)
	rep := m.Train(train, val)
	trainS := t.end().Seconds()
	if rep.Diverged {
		return nil, fmt.Errorf("training %s diverged", model)
	}
	if rep.Epochs > 0 {
		windows := float64(rep.Epochs * len(train))
		layer["predictors.train_s."+model] = trainS
		layer["predictors.train_windows_per_s."+model] = windows / trainS
		layer["predictors.epochs."+model] = float64(rep.Epochs)
		layer["predictors.retries."+model] = float64(rep.Retries)
		if traced {
			layer["predictors.allocs_per_train_window"] = readMem().mallocsSince(mem0) / windows
		}
	}

	t = tr.start("client.campaign", 0)
	camp, err := buildCampaign(b.seed, b.procs)
	t.end()
	if err != nil {
		return nil, err
	}
	e := newEndpoint(model, m, sc, camp)
	e.warm()
	if traced {
		for k, v := range layer {
			b.layer[k] = v
		}
	}
	return e, nil
}

// runServe measures a served model: set-up (boot, load campaign, warm
// sessions), then the whole budget alternating idle and loaded.
func runServe(b *bench, model string) error {
	e, err := setupRepeated(b, func(traced bool) (*endpoint, error) { return b.serveSetup(model, traced) })
	if err != nil {
		return err
	}
	m0 := readMem()
	plain, traced := b.measureServing(e, b.budget)
	b.finishPasses(plain, traced, m0)
	return nil
}
