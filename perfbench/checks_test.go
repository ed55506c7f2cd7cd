package main

import (
	"math"
	"strings"
	"testing"

	"prism5g/internal/experiments"
	"prism5g/internal/predictors"
	"prism5g/internal/trace"
)

// Each output check must trip on one perturbed output: a check that cannot
// fail gates nothing.

func TestCheckExperimentTrips(t *testing.T) {
	models := []string{"LSTM", "Prism5G"}
	oracle := []experiments.CellResult{{Model: "LSTM", RMSE: 0.25}, {Model: "Prism5G", RMSE: 0.125}}
	reps := make([]predictors.TrainReport, 2)
	clean := func() ([]float64, []float64) { return []float64{0.25, 0.125}, []float64{1, 2, 0} }
	rmse, qoe := clean()
	if err := checkExperiment(models, rmse, reps, qoe, oracle); err != nil {
		t.Fatalf("clean pass failed: %v", err)
	}

	rmse, qoe = clean()
	rmse[1] = math.Float64frombits(math.Float64bits(rmse[1]) ^ 1)
	if err := checkExperiment(models, rmse, reps, qoe, oracle); err == nil {
		t.Error("a flipped RMSE bit passed")
	}
	rmse, qoe = clean()
	qoe[2] = math.NaN()
	if err := checkExperiment(models, rmse, reps, qoe, oracle); err == nil {
		t.Error("a NaN QoE figure passed")
	}
	rmse, qoe = clean()
	diverged := []predictors.TrainReport{{}, {Diverged: true}}
	if err := checkExperiment(models, rmse, diverged, qoe, oracle); err == nil {
		t.Error("a diverged training passed")
	}
}

func TestCheckPopulationTrips(t *testing.T) {
	ref := spillDigest{train: [32]byte{1}, val: [32]byte{2}, nTrain: 205, nVal: 51}
	pass := popPass{nTrain: 205, nVal: 51, fitRead: 205}
	pass.report.Traces = popUEs
	if err := checkPopulation(pass, ref, ref); err != nil {
		t.Fatalf("clean pass failed: %v", err)
	}

	dropped := pass
	dropped.nTrain--
	dropped.fitRead--
	dropped.report.Traces--
	got := ref
	got.nTrain--
	if err := checkPopulation(dropped, got, ref); err == nil {
		t.Error("a dropped trace passed")
	}
	got = ref
	got.nVal--
	if err := checkPopulation(pass, got, ref); err == nil {
		t.Error("a trace lost on read-back passed")
	}
	got = ref
	got.val[0] ^= 1
	if err := checkPopulation(pass, got, ref); err == nil {
		t.Error("spill bytes differing from workers=1 passed")
	}
}

func TestCheckAccountingTrips(t *testing.T) {
	outcomes := [nOutcomes]int{outOK: 90, outWarmup: 4, outDegraded: 3, outShed: 2, outError: 1}
	if err := checkAccounting(100, outcomes); err != nil {
		t.Fatalf("clean accounting failed: %v", err)
	}
	if err := checkAccounting(101, outcomes); err == nil {
		t.Error("a request with no outcome passed")
	}
}

// TestForecastCheckTrips serves HarmonicMean over a real campaign, checks
// that every ok forecast matches the offline pipeline, then perturbs one
// served value and one repeated answer.
func TestForecastCheckTrips(t *testing.T) {
	camp, err := buildCampaign(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	var traces []trace.Trace
	for _, s := range camp.samples {
		traces = append(traces, trace.Trace{Samples: s})
	}
	sc := &trace.Scaler{}
	sc.Fit(traces)
	e := newEndpoint("HarmonicMean", &predictors.HarmonicMean{Horizon: 10}, sc, camp)
	e.warm()
	p := e.idle(newTracer(), 4*loadSamples)
	if p.outcomes[outOK] != p.sent {
		t.Fatalf("ok %d of %d", p.outcomes[outOK], p.sent)
	}
	if err := e.checkForecasts(); err != nil {
		t.Fatalf("clean forecasts failed: %v", err)
	}

	f := e.first[5][40]
	f[3] = math.Float64frombits(math.Float64bits(f[3]) ^ 1)
	if err := e.checkForecasts(); err == nil || !strings.Contains(err.Error(), "offline pipeline") {
		t.Errorf("a wrong forecast value passed: %v", err)
	}
	f[3] = math.Float64frombits(math.Float64bits(f[3]) ^ 1)

	wrong := append([]float64(nil), e.first[7][12]...)
	wrong[0]++
	e.noteForecast(7, 12, wrong)
	if err := e.checkForecasts(); err == nil || !strings.Contains(err.Error(), "identical windows") {
		t.Errorf("a changed repeat answer passed: %v", err)
	}
}
