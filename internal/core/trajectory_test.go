package core

import (
	"math"
	"runtime"
	"testing"

	"prism5g/internal/predictors"
)

// prismTrajectory trains a small Prism5G with the given per-CC backbone
// and weight sharing on synthProblem(11) and returns the exact bits of
// every EpochStat's TrainRMSE, ValRMSE, LR and GradNorm, the report's
// final TrainRMSE and ValRMSE, and Predict(test[0]).
func prismTrajectory(backbone string, shared bool) []uint64 {
	train, val, test := synthProblem(11)
	o := smallOpts()
	o.Backbone, o.SharedWeights = backbone, shared
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

// TestPrismTrajectoryPinned pins Prism5G training runs to exact bits, so
// a change to the model or the training loop that moves any epoch
// statistic, the final RMSEs or a forecast by one ulp fails here. It
// covers the default shared LSTM backbone, the GRU backbone and one
// unshared backbone per carrier slot.
func TestPrismTrajectoryPinned(t *testing.T) {
	cases := []struct {
		name     string
		backbone string
		shared   bool
		want     []uint64
	}{
		{"lstm", "lstm", true, []uint64{
			0x3fe665df0fe00da1, 0x3fd68e9b8922176b, 0x3f847ae147ae147b, 0x3ff00d3959875bba,
			0x3fd335a00b71622c, 0x3fcc16c3bffdc3d1, 0x3f847ae147ae147b, 0x3fe932b245f28c36,
			0x3fc62947ed253938, 0x3fbc9ce7a1ac5e3f, 0x3f847ae147ae147b, 0x3fd944de6ad174f8,
			0x3fbcb87adb52ddbd, 0x3fbc9ce7a1ac5e3f,
			0x3fe0cc268fdc2002, 0x3fe2284320db8fd2, 0x3fceaf80220c46c1, 0x3fd703930590e614, 0x3fd2c217fe51d39d,
			0x3fde608ed3fdc809, 0x3fde656099b6864e, 0x3fe2ad505487d8ec, 0x3fe088a28c878b5f, 0x3fd2e7312f4dee80,
		}},
		{"gru", "gru", true, []uint64{
			0x3fd8f8cab24bddf3, 0x3fd114fdda6151ee, 0x3f847ae147ae147b, 0x3fffc3aba41eac76,
			0x3fc891d3a5a8feb6, 0x3fc3ad81372ed160, 0x3f847ae147ae147b, 0x3fdced475251e049,
			0x3fc3afb3f09c7b7b, 0x3fbf1d1078a13aa9, 0x3f847ae147ae147b, 0x3fdaccb313601dcf,
			0x3fbdfab6fb9642ee, 0x3fbf1d1078a13aa9,
			0x3fd8ed2fd00d8f94, 0x3fdc24a9be8053c2, 0x3fe0bf33c5c6d02d, 0x3fd43a0d913207b0, 0x3fdacdfeff97e6f1,
			0x3fdab37b6951dde1, 0x3fdfcad96306efd9, 0x3fd49aa63cbffe03, 0x3fdeffd6351a9502, 0x3fde0acbe353563a,
		}},
		{"unshared", "lstm", false, []uint64{
			0x3fdf0a422ba2f511, 0x3fca2628b7bcc4e0, 0x3f847ae147ae147b, 0x3ff004b0a416ca86,
			0x3fc6113cbd94e41f, 0x3fb5f659f31f7c2a, 0x3f847ae147ae147b, 0x3fce3464a19f530a,
			0x3fb669e90c2576e5, 0x3fb6d19f17c77f8b, 0x3f847ae147ae147b, 0x3fccf55e4ce6266b,
			0x3fb62dd2820af7e9, 0x3fb5f659f31f7c2a,
			0x3fdbff9229fc0f29, 0x3fd92ac78260a659, 0x3fe015f49f427f42, 0x3fd863bf2b9c4d5a, 0x3fe0dc98dc746bc7,
			0x3fd69f6dfe151eb5, 0x3fda1238aecb05bc, 0x3fdf6beacf48e56e, 0x3fd5f7b4049da9e9, 0x3fd3f80a69dde268,
		}},
	}
	for _, tc := range cases {
		got := prismTrajectory(tc.backbone, tc.shared)
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d pinned values, want %d", tc.name, len(got), len(tc.want))
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: value %d = %#016x (%v), want %#016x (%v)", tc.name, i,
					got[i], math.Float64frombits(got[i]), tc.want[i], math.Float64frombits(tc.want[i]))
			}
		}
	}
}

// TestTrainLoopDeterminismAcrossWorkers trains Prism5G at GOMAXPROCS 1
// and 4 and requires identical bits. The baselines' half of the contract
// is the test of the same name in internal/predictors.
func TestTrainLoopDeterminismAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one := prismTrajectory("lstm", true)
	runtime.GOMAXPROCS(4)
	four := prismTrajectory("lstm", true)
	if len(one) != len(four) {
		t.Fatalf("GOMAXPROCS 1 gave %d values, 4 gave %d", len(one), len(four))
	}
	for i := range one {
		if one[i] != four[i] {
			t.Errorf("value %d: GOMAXPROCS 1 %#016x, 4 %#016x", i, one[i], four[i])
		}
	}
}
