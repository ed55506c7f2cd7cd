package ran

import (
	"math"
	"testing"

	"prism5g/internal/mobility"
	"prism5g/internal/rng"
	"prism5g/internal/spectrum"
)

// refStepLoad is the per-cell background-load step Network.StepLoads must
// reproduce bit for bit: the OU process is retuned to dt (decorrelation
// time 40 s, stationary std-dev 0.06), re-centred on the scenario load
// times the time-of-day multiplier, and stepped once.
func refStepLoad(c *Cell, todMultiplier, dt float64) {
	theta := 1 - math.Exp(-dt/40.0)
	c.load.Theta = theta
	c.load.Sigma = 0.06 * math.Sqrt(theta*(2-theta))
	c.load.Mean = c.baseLoad * todMultiplier
	c.load.Step()
}

// TestStepLoadsMatchesReference steps one network with StepLoads and a twin
// built from the same seed with the reference step, and compares every
// cell's Load, and the unclamped process under it, bit for bit after each
// tick. Ticks cycle through the 10 ms,
// 200 ms and 1 s sampling steps and several time-of-day multipliers, and
// some cells carry population load, so the clamps are reached too.
func TestStepLoadsMatchesReference(t *testing.T) {
	dts := []float64{0.01, 0.2, 1}
	tods := []float64{1, 0.4, 1.9, 1.3, 3.5}
	clamped := 0
	for _, tc := range []struct {
		op   spectrum.Operator
		sc   mobility.Scenario
		seed uint64
	}{
		{spectrum.OpZ, mobility.Urban, 61},
		{spectrum.OpX, mobility.Suburban, 62},
		{spectrum.OpY, mobility.Indoor, 63},
	} {
		n := NewNetwork(tc.op, tc.sc, rng.New(tc.seed))
		ref := NewNetwork(tc.op, tc.sc, rng.New(tc.seed))
		for i, c := range n.Cells {
			if i%3 == 0 {
				c.SetPopLoad(0.3 + 0.1*float64(i%5))
				ref.Cells[i].SetPopLoad(0.3 + 0.1*float64(i%5))
			}
		}
		for tick := 0; tick < 120; tick++ {
			dt, tod := dts[tick%len(dts)], tods[(tick/len(dts))%len(tods)]
			n.StepLoads(tod, dt)
			for _, c := range ref.Cells {
				refStepLoad(c, tod, dt)
			}
			for i, c := range n.Cells {
				got, want := c.Load(), ref.Cells[i].Load()
				if math.Float64bits(got) != math.Float64bits(want) ||
					math.Float64bits(c.load.Value()) != math.Float64bits(ref.Cells[i].load.Value()) {
					t.Fatalf("%s/%s tick %d (dt %v, tod %v) cell %s: load %v, want %v",
						tc.op, tc.sc, tick, dt, tod, c.ID(), got, want)
				}
				if want == 0 || want == 1 {
					clamped++
				}
			}
		}
	}
	if clamped == 0 {
		t.Fatal("no load reached a clamp")
	}
}
