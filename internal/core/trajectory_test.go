package core

import (
	"math"
	"runtime"
	"testing"

	"prism5g/internal/predictors"
)

// prismTrajectory trains a small Prism5G on synthProblem(11) and returns
// the exact bits of every EpochStat's TrainRMSE, ValRMSE, LR and GradNorm,
// the report's final TrainRMSE and ValRMSE, and Predict(test[0]).
func prismTrajectory() []uint64 {
	train, val, test := synthProblem(11)
	o := smallOpts()
	o.Train = predictors.TrainOpts{Epochs: 3, Batch: 32, LR: 0.01, Patience: 10, Seed: 3}
	p := New(o, 10)
	rep := p.Train(train, val)
	var out []uint64
	for _, es := range rep.EpochStats {
		out = append(out, math.Float64bits(es.TrainRMSE), math.Float64bits(es.ValRMSE),
			math.Float64bits(es.LR), math.Float64bits(es.GradNorm))
	}
	out = append(out, math.Float64bits(rep.TrainRMSE), math.Float64bits(rep.ValRMSE))
	for _, v := range p.Predict(test[0]) {
		out = append(out, math.Float64bits(v))
	}
	return out
}

// TestPrismTrajectoryPinned pins a Prism5G training run to exact bits, so
// a change to the model or the training loop that moves any epoch
// statistic, the final RMSEs or a forecast by one ulp fails here.
func TestPrismTrajectoryPinned(t *testing.T) {
	want := []uint64{
		0x3fe665df0fe00da1, 0x3fd68e9b8922176b, 0x3f847ae147ae147b, 0x3ff00d3959875bba,
		0x3fd335a00b71622c, 0x3fcc16c3bffdc3d1, 0x3f847ae147ae147b, 0x3fe932b245f28c36,
		0x3fc62947ed253938, 0x3fbc9ce7a1ac5e3f, 0x3f847ae147ae147b, 0x3fd944de6ad174f8,
		0x3fbcb87adb52ddbd, 0x3fbc9ce7a1ac5e3f,
		0x3fe0cc268fdc2002, 0x3fe2284320db8fd2, 0x3fceaf80220c46c1, 0x3fd703930590e614, 0x3fd2c217fe51d39d,
		0x3fde608ed3fdc809, 0x3fde656099b6864e, 0x3fe2ad505487d8ec, 0x3fe088a28c878b5f, 0x3fd2e7312f4dee80,
	}
	got := prismTrajectory()
	if len(got) != len(want) {
		t.Fatalf("%d pinned values, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("value %d = %#016x (%v), want %#016x (%v)", i,
				got[i], math.Float64frombits(got[i]), want[i], math.Float64frombits(want[i]))
		}
	}
}

// TestTrainLoopDeterminismAcrossWorkers trains Prism5G at GOMAXPROCS 1
// and 4 and requires identical bits. The baselines' half of the contract
// is the test of the same name in internal/predictors.
func TestTrainLoopDeterminismAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one := prismTrajectory()
	runtime.GOMAXPROCS(4)
	four := prismTrajectory()
	if len(one) != len(four) {
		t.Fatalf("GOMAXPROCS 1 gave %d values, 4 gave %d", len(one), len(four))
	}
	for i := range one {
		if one[i] != four[i] {
			t.Errorf("value %d: GOMAXPROCS 1 %#016x, 4 %#016x", i, one[i], four[i])
		}
	}
}
