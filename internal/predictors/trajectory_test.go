package predictors

import (
	"math"
	"runtime"
	"testing"

	"prism5g/internal/trace"
)

// trajectoryBits flattens a training run into the exact bits of every
// epoch's TrainRMSE, ValRMSE and GradNorm, the report's final TrainRMSE
// and ValRMSE, and one forecast.
func trajectoryBits(rep TrainReport, y []float64) []uint64 {
	var out []uint64
	for _, es := range rep.EpochStats {
		out = append(out, math.Float64bits(es.TrainRMSE), math.Float64bits(es.ValRMSE), math.Float64bits(es.GradNorm))
	}
	out = append(out, math.Float64bits(rep.TrainRMSE), math.Float64bits(rep.ValRMSE))
	for _, v := range y {
		out = append(out, math.Float64bits(v))
	}
	return out
}

// TestTrainLoopTrajectoryPinned pins both training entry points on the
// three neural baselines — LSTM through BatchSeqModel, TCN and the
// teacher-forced Lumos5G through per-sample ForwardBackward — to the exact
// bits of every epoch statistic and of one forecast. Same-seed determinism
// alone cannot catch a refactor that changes the trajectory consistently;
// this can.
func TestTrainLoopTrajectoryPinned(t *testing.T) {
	// LSTM and TCN recorded from the two pre-fold loops, Lumos5G from the
	// single-goroutine loop; per epoch TrainRMSE, ValRMSE, GradNorm, then
	// the final TrainRMSE and ValRMSE, then the horizon of
	// Predict(test[0]).
	want := map[string][]uint64{
		"TrainLoop/LSTM": {
			0x3fdde69582c60a20, 0x3fd55e30132ab8e8, 0x3fcd753f11198c31,
			0x3fd375b9bf751a9a, 0x3fd0067036798d78, 0x3fd85946ec456787,
			0x3fd05d88a0478869, 0x3fcc44fa7a230300, 0x3fb7fbe55b8e51d4,
			0x3fce522f1119bdbd, 0x3fcc44fa7a230300,
			0x3fe1ec1f0aff4bae, 0x3fe317aff21648ab, 0x3fe2fc4921ec0242, 0x3fe11f38ca6a4b4a, 0x3fe2059d09136612,
			0x3fe246e01943f379, 0x3fe2fa3029acee56, 0x3fe06803e2007c30, 0x3fe028b59d38116c, 0x3fe0e91f33056636,
		},
		"TrainLoop/TCN": {
			0x3fea37c0c6982a56, 0x3fe13dbc11da53e2, 0x3fe602931d551d50,
			0x3fde47e300b9286e, 0x3fd65da6120564ca, 0x3fd7831750c15dcd,
			0x3fd3cec811898246, 0x3fd0c519ec8aa5fb, 0x3fca8cd5dcb6c855,
			0x3fd1adae8227fded, 0x3fd0c519ec8aa5fb,
			0x3fe72e6fb311b64f, 0x3fd71c5a2541d402, 0x3fe4aefe0f16b92a, 0x3fe12158cb80aec9, 0x3fe189af0440ab79,
			0x3fe2e39b68d95525, 0x3fec8802e631d164, 0x3fe41d68de713cec, 0x3fd217bcc09094f8, 0x3fdcd4baa50c6bc1,
		},
		"TrainLoopStream/LSTM": {
			0x3fde6dcff3175778, 0x3fd5e1cc15175485, 0x3fc2605d571a1585,
			0x3fd3916340465854, 0x3fd005352b7e5d0d, 0x3fb3458ef0736168,
			0x3fd046fc579a9d7f, 0x3fcc4f4e0b1473ca, 0x3fc5770c68d9c5e4,
			0x3fce57d1bbda28ee, 0x3fcc4f4e0b1473ca,
			0x3fe20eff62afecec, 0x3fe0593d4dd48a98, 0x3fe15f99b4f87443, 0x3fdf0ec2650c42ac, 0x3fe1a5734dd74c75,
			0x3fe18ae666975b16, 0x3fe182e87c621136, 0x3fdf7cde5714bb00, 0x3fe02d35577c976e, 0x3fe176da6b4784f6,
		},
		"TrainLoopStream/TCN": {
			0x3fe9d8953b596d65, 0x3fe1bee13f510653, 0x3fe640cda2fecc5b,
			0x3fdf78bcf653aeaf, 0x3fd7e63308972fb6, 0x3fdb4c8da524afaf,
			0x3fd507ec2834382d, 0x3fd0bf5ae99546ea, 0x3fd665b639da8c00,
			0x3fd16d4430d1ff4a, 0x3fd0bf5ae99546ea,
			0x3fe6d62c49884874, 0x3fda3e0ff79064e2, 0x3fe1fb93272ff22a, 0x3fe6c1376f62677b, 0x3fdfb4bab3352571,
			0x3fe02b658a221129, 0x3fed3bbf7a71ba24, 0x3fe68c7b28adff40, 0x3fd399d9f3e53004, 0x3fd9807251450a5b,
		},
		"TrainLoop/Lumos5G": {
			0x3fda6b9402efbd7f, 0x3fd314b8a515e468, 0x3fb4879d29d3c21f,
			0x3fd2c7239aeecd6f, 0x3fd19592c67a461a, 0x3fea5b99dd8b9549,
			0x3fcb60429005f8a4, 0x3fd051c47bcefaa9, 0x3fbddf2b2322b2a7,
			0x3fd1a21a08dfe0db, 0x3fd051c47bcefaa9,
			0x3fd90c3032959221, 0x3fdc69d51c956f1d, 0x3fdd60640380c810, 0x3fde13c8b77ec7b4, 0x3fdec1c4880dc67e,
			0x3fdf700ae4cbf9a2, 0x3fe00f7a658d21d3, 0x3fe065f0f7bb485c, 0x3fe0ba6319eb360f, 0x3fe10c151f7b14ad,
		},
		"TrainLoopStream/Lumos5G": {
			0x3fdb6b5355c7818e, 0x3fd2e1101a584fbe, 0x3fe35987657a007c,
			0x3fd261f39dde6d60, 0x3fd1dc66c296f74c, 0x3fc104b906db6e32,
			0x3fcac40f9c8cd7b8, 0x3fd021112904a85c, 0x3fd3a5ce1a79c075,
			0x3fd17c3cb0d36681, 0x3fd021112904a85c,
			0x3fdaf49d30d189c1, 0x3fde79d6837900cd, 0x3fdf7b421abf208f, 0x3fe019cf64b7b7f3, 0x3fe073922539eb5e,
			0x3fe0ce7e3911354f, 0x3fe12b1451e98c25, 0x3fe187f64965d7ea, 0x3fe1e40235dbbf8b, 0x3fe23e5506a74827,
		},
	}
	_, _, train, val, test := problem(t, 31)
	opts := TrainOpts{Epochs: 3, Batch: 16, LR: 0.01, Patience: 10, Seed: 7}
	for _, loop := range []string{"TrainLoop", "TrainLoopStream"} {
		for _, name := range []string{"LSTM", "TCN", "Lumos5G"} {
			key := loop + "/" + name
			got := baselineTrajectory(t, loop, name, 4, train, val, test[0], opts)
			if len(got) != len(want[key]) {
				t.Fatalf("%s: %d pinned values, want %d", key, len(got), len(want[key]))
			}
			for i := range got {
				if got[i] != want[key][i] {
					t.Errorf("%s: value %d = %#016x (%v), want %#016x (%v)", key, i,
						got[i], math.Float64frombits(got[i]), want[key][i], math.Float64frombits(want[key][i]))
				}
			}
		}
	}
}

// baselineTrajectory trains a fresh neural baseline through one of the two
// training entry points and returns its trajectoryBits, forecasting w.
func baselineTrajectory(t *testing.T, loop, name string, hidden int, train, val []trace.Window, w trace.Window, opts TrainOpts) []uint64 {
	t.Helper()
	var m interface {
		Predictor
		SeqModel
	}
	switch name {
	case "LSTM":
		m = NewLSTMPredictor(hidden, 10, opts)
	case "TCN":
		m = NewTCNPredictor(hidden, 10, opts)
	default:
		m = NewLumos5G(hidden, 10, opts)
	}
	var rep TrainReport
	if loop == "TrainLoop" {
		rep = TrainLoop(m, train, val, opts)
	} else {
		var err error
		if rep, err = TrainLoopStream(m, trace.NewSliceStream(train), trace.NewSliceStream(val), opts); err != nil {
			t.Fatalf("TrainLoopStream: %v", err)
		}
	}
	return trajectoryBits(rep, m.Predict(w))
}

// TestTrainLoopDeterminismAcrossWorkers trains LSTM, TCN and Lumos5G
// through both entry points at GOMAXPROCS 1 and 4 and requires identical
// bits. Prism5G's half of the contract is the test of the same name in
// internal/core.
func TestTrainLoopDeterminismAcrossWorkers(t *testing.T) {
	_, _, train, val, test := problem(t, 37)
	opts := TrainOpts{Epochs: 2, Batch: 32, LR: 0.01, Patience: 10, Seed: 5}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, loop := range []string{"TrainLoop", "TrainLoopStream"} {
		for _, name := range []string{"LSTM", "TCN", "Lumos5G"} {
			runtime.GOMAXPROCS(1)
			one := baselineTrajectory(t, loop, name, 6, train, val, test[0], opts)
			runtime.GOMAXPROCS(4)
			four := baselineTrajectory(t, loop, name, 6, train, val, test[0], opts)
			if len(one) != len(four) {
				t.Fatalf("%s/%s: GOMAXPROCS 1 gave %d values, 4 gave %d", loop, name, len(one), len(four))
			}
			for i := range one {
				if one[i] != four[i] {
					t.Errorf("%s/%s: value %d: GOMAXPROCS 1 %#016x, 4 %#016x", loop, name, i, one[i], four[i])
				}
			}
		}
	}
}
