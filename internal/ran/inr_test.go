package ran

import (
	"math"
	"testing"

	"prism5g/internal/mobility"
	"prism5g/internal/phy"
	"prism5g/internal/rng"
	"prism5g/internal/spectrum"
)

// inrCoverage counts which branches of the reference loop ran, so the pin
// can assert that its inputs reach every one of them.
type inrCoverage struct {
	sameSite, beyond, within int
}

// refCoChannelINR is the per-call co-channel interference loop the engine's
// INR must reproduce bit for bit: every co-channel cell at another site
// within 1.5x its coverage radius adds its unshadowed NLOS received power,
// relative to noise and in linear units, scaled by its live load, summed in
// deployment order.
func refCoChannelINR(n *Network, c *Cell, p mobility.Point, indoor bool, cov *inrCoverage) float64 {
	noise := phy.NoiseDBm(c.Chan.SCSKHz)
	f := c.FreqGHz()
	inr := 0.0
	for _, other := range n.Cells {
		if other.Chan.ID() != c.Chan.ID() {
			continue
		}
		if other.Site == c.Site {
			cov.sameSite++
			continue
		}
		d := other.Pos.Dist(p)
		if d > other.CoverageRadiusM()*1.5 {
			cov.beyond++
			continue
		}
		cov.within++
		pl := phy.PathLossNLOS(d, f)
		if indoor {
			pl += phy.IndoorPenetrationDB(f)
		}
		rx := phy.TxPowerPerREdBm(f) - pl
		inr += math.Pow(10, (rx-noise)/10) * other.Load()
	}
	return inr
}

// TestEngineINRMatchesReference pins the engine's co-channel INR, and the
// radio state measure builds from it, to the reference loop bit for bit.
// The position sequence moves to fresh points, stays put while loads step,
// revisits an earlier point after a move and flips the indoor flag in
// place; loads also step between single measurements. Every cell of the
// network is measured, so cells of one channel at different sites, and
// cells of one site on different channels, meet the same position.
func TestEngineINRMatchesReference(t *testing.T) {
	cases := []struct {
		op   spectrum.Operator
		sc   mobility.Scenario
		seed uint64
	}{
		{spectrum.OpZ, mobility.Urban, 3},
		{spectrum.OpZ, mobility.Suburban, 5},
		{spectrum.OpX, mobility.Urban, 305}, // deploys an mmWave cluster
		{spectrum.OpY, mobility.Beltway, 9},
	}
	var cov inrCoverage
	measured, sharedSite := 0, 0
	for _, tc := range cases {
		src := rng.New(tc.seed)
		n := NewNetwork(tc.op, tc.sc, src)
		e := NewEngine(n, NewUE(ModemX70), spectrum.NR, src)
		r := rng.New(tc.seed + 1000)
		ext := tc.sc.ExtentM()
		randPoint := func() mobility.Point {
			return mobility.Point{X: r.Range(-0.2*ext, 1.2*ext), Y: r.Range(-0.2*ext, 1.2*ext)}
		}
		var visited []mobility.Point
		p, indoor := randPoint(), false
		for round := 0; round < 24; round++ {
			switch round % 4 {
			case 0: // a fresh position
				p, indoor = randPoint(), r.Bool(0.5)
			case 1: // same position, loads stepped below
			case 2: // an earlier position, after having moved away
				p = visited[r.Intn(len(visited))]
			case 3: // same position, indoor flipped
				indoor = !indoor
			}
			visited = append(visited, p)
			n.StepLoads(r.Range(0.5, 2), 0.2)
			if round%3 == 0 {
				for _, c := range n.Cells {
					c.SetPopLoad(r.Range(0, 0.5))
				}
			}
			sites := map[int]int{}
			for i, c := range n.Cells {
				if i%7 == 6 {
					n.StepLoads(1, 0.2)
				}
				want := refCoChannelINR(n, c, p, indoor, &cov)
				if got := e.coChannelINR(c, p, indoor); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s/%s round %d cell %s at %+v indoor=%v: INR %v, want %v",
						tc.op, tc.sc, round, c.ID(), p, indoor, got, want)
				}
				d := c.Pos.Dist(p)
				got := e.measure(c, p, indoor)
				ref := e.link(c, d).Evaluate(d, indoor, want)
				if math.Float64bits(got.RSRPdBm) != math.Float64bits(ref.RSRPdBm) ||
					math.Float64bits(got.RSRQdB) != math.Float64bits(ref.RSRQdB) ||
					math.Float64bits(got.SINRdB) != math.Float64bits(ref.SINRdB) {
					t.Fatalf("%s/%s round %d cell %s: measure %+v, want %+v",
						tc.op, tc.sc, round, c.ID(), got, ref)
				}
				measured++
				sites[c.Site]++
			}
			for _, k := range sites {
				if k > 1 {
					sharedSite++
				}
			}
		}
	}
	if cov.sameSite == 0 || cov.beyond == 0 || cov.within == 0 || sharedSite == 0 {
		t.Fatalf("inputs miss a branch: %+v, %d measured site groups", cov, sharedSite)
	}
	t.Logf("%d measurements; interferers %+v; %d site groups measured together", measured, cov, sharedSite)
}

// BenchmarkEngineStep times one RRC measurement round: the UE moves one
// step along a walking path, and the engine advances its shadowing and
// measures every candidate cell, which is where co-channel interference
// is computed.
func BenchmarkEngineStep(b *testing.B) {
	src := rng.New(17)
	sc := mobility.Urban
	n := NewNetwork(spectrum.OpZ, sc, src)
	e := NewEngine(n, NewUE(ModemX70), spectrum.NR, src)
	const dt = 0.2
	mv := mobility.NewMover(sc, mobility.Driving, mobility.Point{X: sc.ExtentM() / 2, Y: sc.ExtentM() / 2}, src)
	path := make([]mobility.Point, 1024)
	moved := make([]float64, len(path))
	for i := range path {
		moved[i] = mv.Step(dt)
		path[i] = mv.Pos()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(path)
		e.Step(path[k], moved[k], dt, false)
	}
}
