package experiments

import (
	"testing"

	"prism5g/internal/mobility"
	"prism5g/internal/sim"
	"prism5g/internal/spectrum"
)

// BenchmarkTrain measures each neural Table 4 column's training on the
// perfbench experiment cell (OpZ, driving, long granularity) at
// QuickMLConfig scale. The problem is built once, outside the timer; each
// iteration trains a fresh model. windows/s counts training windows
// consumed, epochs times the training split.
func BenchmarkTrain(b *testing.B) {
	cfg := QuickMLConfig(7)
	prob := BuildProblem(sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: sim.Long}, cfg)
	for _, name := range []string{"LSTM", "TCN", "Lumos5G", "Prism5G"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			windows := 0
			for i := 0; i < b.N; i++ {
				rep := buildModel(name, prob, cfg).Train(prob.Train, prob.Val)
				windows += rep.Epochs * len(prob.Train)
			}
			b.ReportMetric(float64(windows)/b.Elapsed().Seconds(), "windows/s")
		})
	}
}
