package bitset

import (
	"errors"
	"fmt"
	"math/bits"
	"strconv"
)

// Matrix is an arena of fixed-width bit sets: rows × n bits in one
// contiguous []uint64, row i occupying words[i*wpr : (i+1)*wpr]. The
// liveness engines store one set per CFG node with identical universes
// (the R and T sets of the checker, the live-in/live-out vectors of the
// set-producing baselines), so backing them all with one allocation
// replaces O(n) little heap objects per function with O(1) and lays the
// T_q candidate walk out cache-line-contiguously — the constant-factor
// concern of the paper's §5–§6.1 precompute/query trade-off.
//
// Rows are reachable two ways: the word-level Row* methods below index the
// arena directly, and Row(i) returns a *Set view sharing the arena, so a
// row participates in the whole existing Set API (Union, Subtract, Clone,
// Elements, ...) and interoperates with standalone sets and with rows of
// other matrices.
type Matrix struct {
	words []uint64
	rows  []Set // one header per row, words aliasing the arena
	wpr   int   // words per row
	n     int   // universe per row
}

// NewMatrix returns an all-zero matrix of the given row count, each row a
// set over the universe [0, n).
func NewMatrix(rows, n int) *Matrix {
	if rows < 0 || n < 0 {
		panic("bitset: negative matrix dimension")
	}
	wpr := (n + wordBits - 1) / wordBits
	m := &Matrix{words: make([]uint64, rows*wpr), wpr: wpr, n: n}
	m.rows = make([]Set, rows)
	for i := range m.rows {
		m.rows[i] = Set{words: m.words[i*wpr : (i+1)*wpr : (i+1)*wpr], n: n}
	}
	return m
}

// AdoptMatrix wraps an existing word arena as a rows × n matrix without
// copying: the matrix aliases words, so the caller's buffer (a decoded
// snapshot, an mmap'd file) becomes live set storage with zero per-row
// allocation. The arena must hold exactly rows*wordsPerRow(n) words; a
// mismatch is an error, not a panic — adopted data arrives from disk, and
// corrupt inputs must degrade gracefully.
func AdoptMatrix(words []uint64, rows, n int) (*Matrix, error) {
	if rows < 0 || n < 0 {
		return nil, errors.New("bitset: negative matrix dimension")
	}
	wpr := (n + wordBits - 1) / wordBits
	if len(words) != rows*wpr {
		return nil, fmt.Errorf("bitset: adopt %d words for %d×%d matrix (want %d)",
			len(words), rows, n, rows*wpr)
	}
	m := &Matrix{words: words, wpr: wpr, n: n}
	m.rows = make([]Set, rows)
	for i := range m.rows {
		m.rows[i] = Set{words: m.words[i*wpr : (i+1)*wpr : (i+1)*wpr], n: n}
	}
	return m, nil
}

// Words exposes the backing arena: rows*wordsPerRow contiguous uint64s, row
// i at [i*wpr, (i+1)*wpr). It is the zero-copy export AdoptMatrix is the
// import for — serializers write these words verbatim and re-adopt them on
// load. The slice aliases live storage; treat it as read-only unless the
// matrix is otherwise unreferenced. Nil matrices export nil.
func (m *Matrix) Words() []uint64 {
	if m == nil {
		return nil
	}
	return m.words
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return len(m.rows) }

// Len returns the per-row universe size.
func (m *Matrix) Len() int { return m.n }

// Row returns row i as a *Set view over the arena. The view is live — Set
// mutators write the matrix — and stable: repeated calls return the same
// pointer, so holding Row results is allocation-free.
func (m *Matrix) Row(i int) *Set { return &m.rows[i] }

// Views returns all rows as a []*Set, for call sites built around slices
// of sets (the data-flow solver's live vectors). The slice costs one
// allocation; the sets alias the arena.
func (m *Matrix) Views() []*Set {
	out := make([]*Set, len(m.rows))
	for i := range m.rows {
		out[i] = &m.rows[i]
	}
	return out
}

// RowAdd inserts x into row i.
func (m *Matrix) RowAdd(i, x int) {
	if uint(x) >= uint(m.n) {
		panic("bitset: index " + strconv.Itoa(x) + " out of range [0," + strconv.Itoa(m.n) + ")")
	}
	m.words[i*m.wpr+x/wordBits] |= 1 << uint(x%wordBits)
}

// RowHas reports whether x is in row i, with Set.Has's out-of-range
// tolerance (false).
func (m *Matrix) RowHas(i, x int) bool {
	if uint(x) >= uint(m.n) {
		return false
	}
	return m.words[i*m.wpr+x/wordBits]&(1<<uint(x%wordBits)) != 0
}

// RowUnion unions row src into row dst (both of m) and reports whether dst
// changed. This is the precompute workhorse: one bounds check, then a pure
// word loop over two arena slices.
func (m *Matrix) RowUnion(dst, src int) bool {
	if dst == src {
		return false
	}
	d := m.words[dst*m.wpr : (dst+1)*m.wpr]
	s := m.words[src*m.wpr : (src+1)*m.wpr]
	changed := false
	for i, w := range s {
		nw := d[i] | w
		if nw != d[i] {
			d[i] = nw
			changed = true
		}
	}
	return changed
}

// RowNextSet returns the position of the first set bit of row i at or
// after from, or None — bitset_next_set against the arena, for one-shot
// probes. Walks that rescan the same row (the T_q candidate loop) hoist
// Row(i) once and use Set.NextSet instead, amortizing the row lookup.
func (m *Matrix) RowNextSet(i, from int) int {
	if from < 0 {
		from = 0
	}
	if from >= m.n {
		return None
	}
	row := m.words[i*m.wpr : (i+1)*m.wpr]
	wi := from / wordBits
	if w := row[wi] >> uint(from%wordBits); w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(row); wi++ {
		if row[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(row[wi])
		}
	}
	return None
}

// WordBytes returns the arena footprint in bytes — the one footprint
// definition matrix-backed engines report from MemoryBytes, consistent
// with summing Set.WordBytes over the row views. Nil matrices (a checker
// that dropped its T arena for the sorted-array variant) weigh zero.
func (m *Matrix) WordBytes() int {
	if m == nil {
		return 0
	}
	return len(m.words) * 8
}
