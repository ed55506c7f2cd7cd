package nn

// Arena is a bump allocator over reusable flat slabs: the scratch and tape
// buffers of the hot training/eval paths draw zeroed views from it instead
// of calling make per step. Reset rewinds the arena so the next pass reuses
// the same backing memory; after the first few passes grow to the
// high-water mark, an arena-backed forward/backward allocates nothing.
//
// Views handed out before a Reset remain valid Go slices (the garbage
// collector keeps their chunk alive) but are clobbered by the views handed
// out after it — callers own the lifetime discipline: everything drawn from
// one arena belongs to one forward/backward pass.
//
// An Arena is not safe for concurrent use; models that run concurrent
// passes keep their arenas in a sync.Pool (see internal/predictors).
type Arena struct {
	floats []float64
	nf     int // floats used
	rows   [][]float64
	nr     int // row headers used
}

// Reset rewinds the arena, keeping the grown slabs for reuse.
func (a *Arena) Reset() { a.nf, a.nr = 0, 0 }

// Mark captures the current allocation point. A tape records a Mark after
// its forward pass; every backward pass rewinds to it, so repeated
// backwards over one tape recycle the same scratch region without
// clobbering the tape itself.
type Mark struct{ nf, nr int }

// Mark returns the current allocation point.
func (a *Arena) Mark() Mark { return Mark{nf: a.nf, nr: a.nr} }

// Rewind returns the arena to a previously captured Mark. If the arena
// grew a fresh slab since the mark was taken, views handed out before the
// growth live in the old slab and stay intact; rewinding merely wastes the
// gap, it never aliases them.
func (a *Arena) Rewind(m Mark) {
	a.nf, a.nr = m.nf, m.nr
}

// Reserve makes sure the next nf floats and nr row headers fit in the
// current slabs, growing each at most once to exactly the requested room.
// A pass whose size is known up front calls it right after Reset, so a
// fresh arena allocates one slab of each kind instead of doubling into
// its high-water mark.
func (a *Arena) Reserve(nf, nr int) {
	if a.nf+nf > len(a.floats) {
		a.floats = make([]float64, nf)
		a.nf = 0
	}
	if a.nr+nr > len(a.rows) {
		a.rows = make([][]float64, nr)
		a.nr = 0
	}
}

// Floats returns a zeroed view of n float64s.
func (a *Arena) Floats(n int) []float64 {
	if a.nf+n > len(a.floats) {
		// Grow into a fresh slab; outstanding views keep the old one alive.
		size := 2 * len(a.floats)
		if size < n {
			size = n
		}
		if size < 256 {
			size = 256
		}
		a.floats = make([]float64, size)
		a.nf = 0
	}
	v := a.floats[a.nf : a.nf+n : a.nf+n]
	a.nf += n
	clear(v)
	return v
}

// Rows returns a nil-cleared view of n slice headers (for building
// per-step tape matrices without allocating the spine).
func (a *Arena) Rows(n int) [][]float64 {
	if a.nr+n > len(a.rows) {
		size := 2 * len(a.rows)
		if size < n {
			size = n
		}
		if size < 64 {
			size = 64
		}
		a.rows = make([][]float64, size)
		a.nr = 0
	}
	v := a.rows[a.nr : a.nr+n : a.nr+n]
	a.nr += n
	for i := range v {
		v[i] = nil
	}
	return v
}

// Matrix returns an r x c matrix of zeroed views sharing one contiguous
// float block (row i is flat[i*c : (i+1)*c]).
func (a *Arena) Matrix(r, c int) [][]float64 {
	m := a.Rows(r)
	flat := a.Floats(r * c)
	for i := range m {
		m[i] = flat[i*c : (i+1)*c : (i+1)*c]
	}
	return m
}
