package phy

import (
	"math"

	"prism5g/internal/rng"
)

// Propagation constants for the TR 38.901 UMa-style model.
const (
	// noiseFigureDB is the assumed UE receiver noise figure.
	noiseFigureDB = 7.0
	// thermalNoiseDBmPerHz is kTB at 290 K.
	thermalNoiseDBmPerHz = -174.0
	// shadowDecorrelationM is the shadow-fading decorrelation distance.
	shadowDecorrelationM = 37.0
)

// umaPathLoss returns the UMa LOS and NLOS formula values in dB for a 3D
// distance d (meters) and carrier frequency f (GHz), per TR 38.901
// Table 7.4.1-1 (pre-breakpoint form, UE height 1.5 m). Both share one
// logarithm of each argument.
func umaPathLoss(dM, fGHz float64) (los, nlos float64) {
	if dM < 1 {
		dM = 1
	}
	logD, fTerm := math.Log10(dM), 20.0*math.Log10(fGHz)
	return 28.0 + 22.0*logD + fTerm, 13.54 + 39.08*logD + fTerm
}

// PathLossLOS returns the UMa line-of-sight path loss in dB.
func PathLossLOS(dM, fGHz float64) float64 {
	los, _ := umaPathLoss(dM, fGHz)
	return los
}

// PathLossNLOS returns the UMa non-line-of-sight path loss in dB, defined as
// the maximum of the LOS loss and the NLOS formula.
func PathLossNLOS(dM, fGHz float64) float64 {
	return math.Max(umaPathLoss(dM, fGHz))
}

// LOSProbability returns the UMa probability that a link of 2D distance d
// (meters) is line-of-sight (TR 38.901 Table 7.4.2-1, simplified).
func LOSProbability(dM float64) float64 {
	if dM <= 18 {
		return 1
	}
	p := 18/dM + math.Exp(-dM/63)*(1-18/dM)
	if p > 1 {
		p = 1
	}
	return p
}

// IndoorPenetrationDB returns the building-entry loss in dB at frequency f
// (GHz), increasing with frequency (low band penetrates far better — the
// effect behind paper Fig 28's FDD low-band PCell indoors).
func IndoorPenetrationDB(fGHz float64) float64 {
	// O2I model between the 38.901 low- and high-loss variants: strongly
	// frequency-dependent, so low band keeps indoor coverage while
	// mid-band collapses (paper Fig 28).
	l := 15 + 8*math.Log10(fGHz) + 3*fGHz
	if l < 10 {
		l = 10
	}
	if l > 45 {
		l = 45
	}
	return l
}

// NoiseDBm returns the thermal noise power over one resource element of the
// given sub-carrier spacing, including the receiver noise figure.
func NoiseDBm(scsKHz int) float64 {
	return thermalNoiseDBmPerHz + 10*math.Log10(float64(scsKHz)*1e3) + noiseFigureDB
}

// TxPowerPerREdBm returns the modeled base-station EIRP per resource
// element for a carrier at frequency f (GHz). mmWave carriers get a
// beamforming bonus but will still lose on path loss; low-band carriers run
// hotter per RE because they carry fewer RBs.
func TxPowerPerREdBm(fGHz float64) float64 {
	switch {
	case fGHz >= 24: // mmWave with beamforming gain
		return 33
	case fGHz < 1: // low band
		return 21
	default: // mid band
		return 18
	}
}

// distDrift is a correlated shadowing process driven by travelled distance
// rather than time: it takes one OU step per Theta of the decorrelation
// distance, so fine-grained sampling (10 ms) does not over-decorrelate it.
type distDrift struct {
	ou *rng.OU
	// pendingSteps accumulates fractional process steps.
	pendingSteps float64
}

// move advances the process by distM meters and returns the distance it
// counted. Stationary UEs still see slow drift (people, vehicles): a
// non-positive move counts as a token 5 cm.
func (d *distDrift) move(distM float64) float64 {
	if distM <= 0 {
		distM = 0.05
	}
	d.pendingSteps += distM / shadowDecorrelationM / d.ou.Theta
	for d.pendingSteps >= 1 {
		d.ou.Step()
		d.pendingSteps--
	}
	return distM
}

// SiteState is the propagation state shared by every carrier radiated from
// one site toward one UE: the line-of-sight condition and the dominant
// shadow-fading process. Carriers of one site must share these — LOS and
// large-scale obstruction are properties of the site-UE geometry, not of the
// carrier frequency.
type SiteState struct {
	// LOS is the sticky line-of-sight state, re-drawn as the UE moves.
	LOS bool
	// shadow is the shadow-fading process in dB.
	shadow distDrift
	// losSrc draws LOS transitions.
	losSrc *rng.Source
	// sinceLOSCheckM accumulates distance since the last LOS re-draw.
	sinceLOSCheckM float64
}

// NewSiteState creates the shared propagation state for a site at initial
// 2D distance d0 (meters).
func NewSiteState(src *rng.Source, d0 float64) *SiteState {
	st := &SiteState{losSrc: src.Split()}
	st.LOS = st.losSrc.Bool(LOSProbability(d0))
	// Shadow sigma between the LOS (4 dB) and NLOS (6 dB) spec values.
	st.shadow = distDrift{ou: rng.NewOU(src, 0, 0.15, 5*math.Sqrt(0.15*(2-0.15)))}
	return st
}

// Move advances the site state by the given travelled distance in meters,
// evolving shadow fading and occasionally re-drawing the LOS state.
func (st *SiteState) Move(distM, cellDistM float64) {
	st.sinceLOSCheckM += st.shadow.move(distM)
	if st.sinceLOSCheckM > shadowDecorrelationM {
		st.sinceLOSCheckM = 0
		st.LOS = st.losSrc.Bool(LOSProbability(cellDistM))
	}
}

// Shadow returns the current shadow-fading value in dB.
func (st *SiteState) Shadow() float64 { return st.shadow.ou.Value() }

// BandState is the per-(site, band) component of shadowing: different
// frequency bands from one site see substantially different obstruction and
// multipath, which is why the paper's inter-band RSRPs decorrelate
// (Fig 13b) while intra-band RSRPs track each other.
type BandState struct {
	dev distDrift
}

// NewBandState creates the shared per-band deviation process.
func NewBandState(src *rng.Source) *BandState {
	return &BandState{dev: distDrift{ou: rng.NewOU(src, 0, 0.12, 4*math.Sqrt(0.12*(2-0.12)))}}
}

// Move advances the band deviation by travelled distance.
func (bs *BandState) Move(distM float64) { bs.dev.move(distM) }

// Value returns the current deviation in dB.
func (bs *BandState) Value() float64 { return bs.dev.ou.Value() }

// Link models one carrier-to-UE radio link. It shares the site's LOS and
// shadowing, the band's deviation, and adds a small per-carrier deviation
// (frequency-selective large-scale effects).
type Link struct {
	FreqGHz float64
	SCSKHz  int
	// txDBm and noiseDBm are TxPowerPerREdBm(FreqGHz) and
	// NoiseDBm(SCSKHz), fixed by NewLink.
	txDBm, noiseDBm float64
	// Site is the shared per-site propagation state.
	Site *SiteState
	// Band is the shared per-(site, band) deviation.
	Band *BandState
	// dev is the small per-carrier shadowing deviation in dB; it
	// decorrelates on the same spatial scale as shadowing.
	dev distDrift
}

// NewLink creates a carrier link bound to its site's and band's shared
// state.
func NewLink(src *rng.Source, fGHz float64, scsKHz int, site *SiteState, band *BandState) *Link {
	return &Link{
		FreqGHz:  fGHz,
		SCSKHz:   scsKHz,
		txDBm:    TxPowerPerREdBm(fGHz),
		noiseDBm: NoiseDBm(scsKHz),
		Site:     site,
		Band:     band,
		dev:      distDrift{ou: rng.NewOU(src, 0, 0.1, 1.2*math.Sqrt(0.1*(2-0.1)))},
	}
}

// Move advances the per-carrier deviation; the shared site state is moved
// separately (once per site per step) by the caller.
func (l *Link) Move(distM float64) { l.dev.move(distM) }

// RadioState is the UE-side radio measurement of one link, the per-CC PHY
// feature block of paper Table 3/12.
type RadioState struct {
	RSRPdBm float64
	RSRQdB  float64
	SINRdB  float64
}

// Evaluate computes the link's radio state at 2D distance d (meters).
// indoor adds building-entry loss; loadINR is the interference-to-noise
// ratio (linear) from neighbour-cell load.
func (l *Link) Evaluate(dM float64, indoor bool, loadINR float64) RadioState {
	var pl float64
	if l.Site.LOS {
		pl = PathLossLOS(dM, l.FreqGHz)
	} else {
		pl = PathLossNLOS(dM, l.FreqGHz)
	}
	if indoor {
		pl += IndoorPenetrationDB(l.FreqGHz)
	}
	rsrp := l.txDBm - pl + l.Site.Shadow() + l.Band.Value() + l.dev.ou.Value()
	if rsrp > -44 {
		rsrp = -44 // RSRP report ceiling
	}
	if rsrp < -140 {
		rsrp = -140 // detection floor
	}
	interfDB := 10 * math.Log10(1+loadINR)
	sinr := rsrp - l.noiseDBm - interfDB
	if sinr > 32 {
		sinr = 32 // practical ceiling: EVM, pilot contamination
	}
	if sinr < -10 {
		sinr = -10
	}
	// RSRQ = 10log10(N) + RSRP - RSSI; with RSSI dominated by serving
	// power plus interference this reduces to roughly -10.8 dB minus the
	// interference-plus-noise excess.
	snrLin := math.Pow(10, sinr/10)
	rsrq := -10.8 - interfDB - 10*math.Log10(1+3/math.Max(snrLin, 0.1))/3
	if rsrq < -19.5 {
		rsrq = -19.5
	}
	if rsrq > -3 {
		rsrq = -3
	}
	return RadioState{RSRPdBm: rsrp, RSRQdB: rsrq, SINRdB: sinr}
}
