package phy

import (
	"math"
	"testing"

	"prism5g/internal/rng"
)

// Reference copies of the distance-driven shadowing processes: each
// constructor and Move loop written out as the model states it, with every
// sigma folded from constants. The package's SiteState, BandState and Link
// must produce the same bits from the same seed.

type refSiteState struct {
	los            bool
	shadow         *rng.OU
	losSrc         *rng.Source
	sinceLOSCheckM float64
	pendingSteps   float64
}

func newRefSiteState(src *rng.Source, d0 float64) *refSiteState {
	st := &refSiteState{losSrc: src.Split()}
	st.los = st.losSrc.Bool(LOSProbability(d0))
	st.shadow = rng.NewOU(src, 0, 0.15, 5*math.Sqrt(0.15*(2-0.15)))
	return st
}

// move reports whether the LOS state was re-drawn.
func (st *refSiteState) move(distM, cellDistM float64) bool {
	if distM <= 0 {
		distM = 0.05
	}
	st.pendingSteps += distM / shadowDecorrelationM / 0.15
	for st.pendingSteps >= 1 {
		st.shadow.Step()
		st.pendingSteps--
	}
	st.sinceLOSCheckM += distM
	if st.sinceLOSCheckM > shadowDecorrelationM {
		st.sinceLOSCheckM = 0
		st.los = st.losSrc.Bool(LOSProbability(cellDistM))
		return true
	}
	return false
}

type refBandState struct {
	dev          *rng.OU
	pendingSteps float64
}

func newRefBandState(src *rng.Source) *refBandState {
	return &refBandState{dev: rng.NewOU(src, 0, 0.12, 4*math.Sqrt(0.12*(2-0.12)))}
}

func (bs *refBandState) move(distM float64) {
	if distM <= 0 {
		distM = 0.05
	}
	bs.pendingSteps += distM / shadowDecorrelationM / 0.12
	for bs.pendingSteps >= 1 {
		bs.dev.Step()
		bs.pendingSteps--
	}
}

type refLink struct {
	fGHz         float64
	site         *refSiteState
	band         *refBandState
	dev          *rng.OU
	pendingSteps float64
}

func newRefLink(src *rng.Source, fGHz float64, site *refSiteState, band *refBandState) *refLink {
	return &refLink{fGHz: fGHz, site: site, band: band,
		dev: rng.NewOU(src, 0, 0.1, 1.2*math.Sqrt(0.1*(2-0.1)))}
}

func (l *refLink) move(distM float64) {
	if distM <= 0 {
		distM = 0.05
	}
	l.pendingSteps += distM / shadowDecorrelationM / 0.1
	for l.pendingSteps >= 1 {
		l.dev.Step()
		l.pendingSteps--
	}
}

// rsrp is the reported RSRP at 2D distance dM outdoors and whether it lies
// inside the report range unclamped.
func (l *refLink) rsrp(dM float64) (float64, bool) {
	pl := PathLossNLOS(dM, l.fGHz)
	if l.site.los {
		pl = PathLossLOS(dM, l.fGHz)
	}
	r := TxPowerPerREdBm(l.fGHz) - pl + l.site.shadow.Value() + l.band.dev.Value() + l.dev.Value()
	return math.Min(math.Max(r, -140), -44), r > -140 && r < -44
}

// TestShadowingMatchesReference pins SiteState, BandState and Link to the
// reference processes bit for bit over a Move sequence that includes zero
// and negative distances (the 5 cm stationary drift, which the LOS re-draw
// distance counts too), sub-step and
// multi-step distances, and enough travel to re-draw the LOS state many
// times. Two links share one site and one band, a third carrier sits on a
// second band of the same site, as the RAN wires them.
func TestShadowingMatchesReference(t *testing.T) {
	// The tail leaves the LOS accumulator just under the decorrelation
	// distance, so only the 5 cm drift of the zero moves re-draws it.
	moves := []float64{0, -3, 0.01, 0.05, 1.2, 5.55, 0, 36.9, 37, 0.3, 250, -0.5, 12, 80.25, 3, 0, 19.7, 600, 44.4,
		36.98, 0, -1, 0, 36.97, -2, 0, 0, 0}
	freqs := []float64{2.5, 3.7, 0.739}
	redraws, flips, steps, evals, unclamped := 0, 0, 0, 0, 0
	for seed := uint64(1); seed <= 6; seed++ {
		d0 := 20 + 60*float64(seed)
		src, refSrc := rng.New(seed), rng.New(seed)

		site := NewSiteState(src, d0)
		bands := []*BandState{NewBandState(src), NewBandState(src)}
		links := []*Link{
			NewLink(src, freqs[0], 30, site, bands[0]),
			NewLink(src, freqs[1], 30, site, bands[0]),
			NewLink(src, freqs[2], 15, site, bands[1]),
		}
		refSite := newRefSiteState(refSrc, d0)
		refBands := []*refBandState{newRefBandState(refSrc), newRefBandState(refSrc)}
		refLinks := []*refLink{
			newRefLink(refSrc, freqs[0], refSite, refBands[0]),
			newRefLink(refSrc, freqs[1], refSite, refBands[0]),
			newRefLink(refSrc, freqs[2], refSite, refBands[1]),
		}

		check := func(step int, cellDistM float64) {
			t.Helper()
			if site.LOS != refSite.los {
				t.Fatalf("seed %d step %d: LOS %v, want %v", seed, step, site.LOS, refSite.los)
			}
			if got, want := site.Shadow(), refSite.shadow.Value(); !sameBits(got, want) {
				t.Fatalf("seed %d step %d: site shadow %v, want %v", seed, step, got, want)
			}
			for i, b := range bands {
				if got, want := b.Value(), refBands[i].dev.Value(); !sameBits(got, want) {
					t.Fatalf("seed %d step %d: band %d value %v, want %v", seed, step, i, got, want)
				}
			}
			for i, l := range links {
				want, inRange := refLinks[i].rsrp(cellDistM)
				evals++
				if inRange {
					unclamped++
				}
				if got := l.Evaluate(cellDistM, false, 0).RSRPdBm; !sameBits(got, want) {
					t.Fatalf("seed %d step %d link %d: RSRP %v, want %v", seed, step, i, got, want)
				}
			}
		}

		check(-1, d0)
		for rep := 0; rep < 4; rep++ {
			for i, m := range moves {
				cellDistM := 30 + float64((i*37+rep*11+int(seed))%400)
				los := refSite.los
				site.Move(m, cellDistM)
				if refSite.move(m, cellDistM) {
					redraws++
					if refSite.los != los {
						flips++
					}
				}
				for _, b := range bands {
					b.Move(m)
				}
				for _, b := range refBands {
					b.move(m)
				}
				for k, l := range links {
					l.Move(m)
					refLinks[k].move(m)
				}
				check(rep*len(moves)+i, cellDistM)
				steps++
			}
		}
	}
	if redraws < 10 || flips == 0 || unclamped < evals*9/10 {
		t.Fatalf("inputs too tame: %d LOS re-draws, %d flips, %d of %d RSRPs unclamped", redraws, flips, unclamped, evals)
	}
	t.Logf("%d moves, %d LOS re-draws, %d flips, %d of %d RSRPs unclamped", steps, redraws, flips, unclamped, evals)
}
