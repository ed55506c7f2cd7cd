package phy

import (
	"math"
	"testing"

	"prism5g/internal/rng"
)

// Reference copies of the path-loss and link formulas, each logarithm
// written out where the model states it. The package's versions must
// return the same bits.

func refPathLossLOS(dM, fGHz float64) float64 {
	if dM < 1 {
		dM = 1
	}
	return 28.0 + 22.0*math.Log10(dM) + 20.0*math.Log10(fGHz)
}

func refPathLossNLOS(dM, fGHz float64) float64 {
	if dM < 1 {
		dM = 1
	}
	nlos := 13.54 + 39.08*math.Log10(dM) + 20.0*math.Log10(fGHz)
	return math.Max(refPathLossLOS(dM, fGHz), nlos)
}

func refEvaluate(l *Link, dM float64, indoor bool, loadINR float64) RadioState {
	var pl float64
	if l.Site.LOS {
		pl = refPathLossLOS(dM, l.FreqGHz)
	} else {
		pl = refPathLossNLOS(dM, l.FreqGHz)
	}
	if indoor {
		pl += IndoorPenetrationDB(l.FreqGHz)
	}
	rsrp := TxPowerPerREdBm(l.FreqGHz) - pl + l.Site.Shadow() + l.Band.Value() + l.dev.ou.Value()
	if rsrp > -44 {
		rsrp = -44
	}
	if rsrp < -140 {
		rsrp = -140
	}
	noise := thermalNoiseDBmPerHz + 10*math.Log10(float64(l.SCSKHz)*1e3) + noiseFigureDB
	sinr := rsrp - noise - 10*math.Log10(1+loadINR)
	if sinr > 32 {
		sinr = 32
	}
	if sinr < -10 {
		sinr = -10
	}
	snrLin := math.Pow(10, sinr/10)
	rsrq := -10.8 - 10*math.Log10(1+loadINR) - 10*math.Log10(1+3/math.Max(snrLin, 0.1))/3
	if rsrq < -19.5 {
		rsrq = -19.5
	}
	if rsrq > -3 {
		rsrq = -3
	}
	return RadioState{RSRPdBm: rsrp, RSRQdB: rsrq, SINRdB: sinr}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestPathLossAndEvaluateMatchReference pins PathLossLOS, PathLossNLOS,
// NoiseDBm and Link.Evaluate to the reference formulas bit for bit over a
// grid of distance, frequency, interference, LOS state and indoor flag,
// with links of every sub-carrier spacing in use.
func TestPathLossAndEvaluateMatchReference(t *testing.T) {
	dists := []float64{0, 0.5, 1, 3.7, 18, 57.3, 120, 250, 731.9, 999, 1800, 3500, 12000}
	freqs := []float64{0.617, 0.739, 0.87, 1.9, 2.14, 2.5, 3.7, 3.98, 28, 39}
	inrs := []float64{0, 1e-9, 1e-3, 0.31, 1, 7.5, 160, 5000, 1e7}
	scss := []int{15, 30, 60, 120}
	src := rng.New(2024)
	n, unclamped := 0, 0
	for _, scs := range scss {
		if got, want := NoiseDBm(scs), thermalNoiseDBmPerHz+10*math.Log10(float64(scs)*1e3)+noiseFigureDB; !sameBits(got, want) {
			t.Fatalf("NoiseDBm(%d) = %v, want %v", scs, got, want)
		}
	}
	for _, f := range freqs {
		for _, d := range dists {
			if got, want := PathLossLOS(d, f), refPathLossLOS(d, f); !sameBits(got, want) {
				t.Fatalf("PathLossLOS(%v, %v) = %v, want %v", d, f, got, want)
			}
			if got, want := PathLossNLOS(d, f), refPathLossNLOS(d, f); !sameBits(got, want) {
				t.Fatalf("PathLossNLOS(%v, %v) = %v, want %v", d, f, got, want)
			}
		}
		for _, scs := range scss {
			l := newTestLink(src, f, scs, 100)
			for _, los := range []bool{true, false} {
				l.Site.LOS = los
				for _, indoor := range []bool{false, true} {
					for _, d := range dists {
						for _, inr := range inrs {
							got, want := l.Evaluate(d, indoor, inr), refEvaluate(l, d, indoor, inr)
							if !sameBits(got.RSRPdBm, want.RSRPdBm) || !sameBits(got.RSRQdB, want.RSRQdB) || !sameBits(got.SINRdB, want.SINRdB) {
								t.Fatalf("f=%v scs=%d los=%v indoor=%v d=%v inr=%v: Evaluate %+v, want %+v",
									f, scs, los, indoor, d, inr, got, want)
							}
							n++
							if want.SINRdB > -10 && want.SINRdB < 32 && want.RSRQdB > -19.5 && want.RSRQdB < -3 {
								unclamped++
							}
						}
					}
				}
			}
			l.Move(40) // fresh shadowing for the next spacing
		}
	}
	if unclamped < n/10 {
		t.Fatalf("only %d of %d grid points leave SINR and RSRQ unclamped", unclamped, n)
	}
}
