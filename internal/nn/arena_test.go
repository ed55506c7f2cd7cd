package nn

import (
	"math"
	"testing"

	"prism5g/internal/rng"
)

func TestArenaViewsZeroedAndDisjoint(t *testing.T) {
	var a Arena
	x := a.Floats(5)
	y := a.Floats(7)
	for i := range x {
		x[i] = 1
	}
	for _, v := range y {
		if v != 0 {
			t.Fatalf("fresh view not zeroed: %v", y)
		}
	}
	y[0] = 2
	if x[4] != 1 {
		t.Fatal("views overlap")
	}
	// Appending to a view must not bleed into the next one.
	x = append(x, 9)
	if y[0] != 2 {
		t.Fatal("append into a view clobbered its neighbour")
	}
}

func TestArenaResetReusesSlab(t *testing.T) {
	var a Arena
	a.Floats(100)
	a.Reset()
	v := a.Floats(100)
	allocs := testing.AllocsPerRun(50, func() {
		a.Reset()
		v = a.Floats(100)
		_ = a.Rows(10)
	})
	_ = v
	if allocs != 0 {
		t.Fatalf("steady-state arena draw allocated %v times", allocs)
	}
}

func TestArenaMarkRewind(t *testing.T) {
	var a Arena
	keep := a.Floats(4)
	for i := range keep {
		keep[i] = float64(i + 1)
	}
	m := a.Mark()
	scratch := a.Floats(4)
	scratch[0] = 99
	a.Rewind(m)
	again := a.Floats(4)
	if again[0] != 0 {
		t.Fatal("rewound draw not zeroed")
	}
	for i := range keep {
		if keep[i] != float64(i+1) {
			t.Fatal("rewind clobbered pre-mark view")
		}
	}
}

func TestArenaMatrixRowsContiguousButCapped(t *testing.T) {
	var a Arena
	m := a.Matrix(3, 4)
	if len(m) != 3 || len(m[0]) != 4 || cap(m[0]) != 4 {
		t.Fatalf("bad matrix shape: len=%d row len=%d cap=%d", len(m), len(m[0]), cap(m[0]))
	}
	m[1][2] = 7
	if m[0][2] != 0 || m[2][2] != 0 {
		t.Fatal("matrix rows alias")
	}
}

func TestGemmMatchesScalarGEMV(t *testing.T) {
	src := rng.New(7)
	const n, m, k = 5, 6, 9 // m not a multiple of rowTile: exercises the tail
	X := make([]float64, n*k)
	W := make([]float64, m*k)
	bias := make([]float64, m)
	for i := range X {
		X[i] = src.Float64() - 0.5
	}
	for i := range W {
		W[i] = src.Float64() - 0.5
	}
	for i := range bias {
		bias[i] = src.Float64() - 0.5
	}
	want := make([]float64, n*m)
	for i := 0; i < n; i++ {
		for o := 0; o < m; o++ {
			s := bias[o]
			for j := 0; j < k; j++ {
				s += W[o*k+j] * X[i*k+j]
			}
			want[i*m+o] = s
		}
	}
	got := make([]float64, n*m)
	MatMulNT(got, X, n, W, m, k, bias)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("MatMulNT[%d] = %v, scalar GEMV = %v (must be bit-identical)", i, got[i], want[i])
		}
	}
	// Accumulating variant continues the chain.
	MatMulAccNT(got, X, n, W, m, k)
	for i := 0; i < n; i++ {
		for o := 0; o < m; o++ {
			s := want[i*m+o]
			for j := 0; j < k; j++ {
				s += W[o*k+j] * X[i*k+j]
			}
			if got[i*m+o] != s {
				t.Fatalf("MatMulAccNT[%d,%d] diverged from sequential chain", i, o)
			}
		}
	}
}

func TestTapeReuseIsDeterministic(t *testing.T) {
	// Running a second forward/backward through the same reused tapes must
	// produce bit-identical outputs and gradients to fresh tapes.
	build := func() (*LSTM, *Dense) {
		s := rng.New(21)
		return NewLSTM("l", 4, 6, s), NewDense("d", 6, 2, s)
	}
	run := func(l *LSTM, d *Dense, tape *LSTMTape, seq [][]float64) ([]float64, []float64) {
		var hs [][]float64
		if tape != nil {
			hs = l.ForwardTape(tape, seq, nil, nil)
		} else {
			hs, tape = l.Forward(seq)
		}
		last := hs[len(hs)-1]
		y := d.Forward(last)
		g := []float64{0.3, -0.7}
		gh := make([][]float64, len(hs))
		gh[len(hs)-1] = d.Backward(last, g)
		l.Backward(tape, gh)
		return append([]float64(nil), y...), nil
	}
	mkSeq := func(shift float64) [][]float64 {
		seq := make([][]float64, 5)
		for i := range seq {
			seq[i] = []float64{0.1 * float64(i), shift, -0.2, 0.05}
		}
		return seq
	}

	lFresh, dFresh := build()
	run(lFresh, dFresh, nil, mkSeq(0.1))
	yFresh, _ := run(lFresh, dFresh, nil, mkSeq(0.4))

	lReuse, dReuse := build()
	var tape LSTMTape
	run(lReuse, dReuse, &tape, mkSeq(0.1))
	yReuse, _ := run(lReuse, dReuse, &tape, mkSeq(0.4))

	for i := range yFresh {
		if yFresh[i] != yReuse[i] {
			t.Fatalf("tape reuse changed output %d: %v vs %v", i, yReuse[i], yFresh[i])
		}
	}
	for pi, pf := range append(lFresh.Params(), dFresh.Params()...) {
		pr := append(lReuse.Params(), dReuse.Params()...)[pi]
		for i := range pf.Grad {
			if pf.Grad[i] != pr.Grad[i] {
				t.Fatalf("tape reuse changed %s grad at %d", pf.Name, i)
			}
		}
	}
	if math.IsNaN(yFresh[0]) {
		t.Fatal("sanity: output is NaN")
	}
}
