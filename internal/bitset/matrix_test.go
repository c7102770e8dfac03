package bitset

import (
	"math/rand"
	"testing"
)

// TestMatrixDifferential drives a Matrix and a mirror of independent Sets
// through the same random operation sequence and demands they agree on
// every observable: Has, NextSet, Count, Elements, and the word-level
// Row* ops against their Set-API counterparts. This is the storage
// rewrite's safety net — the arena must be semantically invisible.
func TestMatrixDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	for trial := 0; trial < 50; trial++ {
		rows := 1 + rng.Intn(12)
		n := rng.Intn(200) // deliberately crosses the 64/128-bit word edges
		m := NewMatrix(rows, n)
		mirror := make([]*Set, rows)
		for i := range mirror {
			mirror[i] = New(n)
		}
		extra := New(n) // a standalone set rows interoperate with
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				extra.Add(i)
			}
		}
		for step := 0; step < 300; step++ {
			i := rng.Intn(rows)
			j := rng.Intn(rows)
			switch op := rng.Intn(7); {
			case op == 0 && n > 0:
				x := rng.Intn(n)
				m.RowAdd(i, x)
				mirror[i].Add(x)
			case op == 1 && n > 0:
				x := rng.Intn(n)
				m.Row(i).Remove(x)
				mirror[i].Remove(x)
			case op == 2:
				if got, want := m.RowUnion(i, j), mirror[i].Union(mirror[j]); i != j && got != want {
					t.Fatalf("trial %d step %d: RowUnion(%d,%d) changed=%v, Set says %v",
						trial, step, i, j, got, want)
				}
			case op == 3:
				m.Row(i).Subtract(mirror[j].Clone()) // clone: subtracting the live mirror of row i from itself must still mirror
				mirror[i].Subtract(mirror[j])
			case op == 4:
				m.Row(i).Union(extra)
				mirror[i].Union(extra)
			case op == 5:
				m.Row(i).Clear()
				mirror[i].Clear()
			case op == 6:
				m.Row(i).Copy(mirror[j])
				mirror[i].Copy(mirror[j])
			}
			// Observables after every step.
			for r := 0; r < rows; r++ {
				if !m.Row(r).Equal(mirror[r]) {
					t.Fatalf("trial %d step %d: row %d = %v, mirror %v", trial, step, r, m.Row(r), mirror[r])
				}
				if got, want := m.Row(r).Count(), mirror[r].Count(); got != want {
					t.Fatalf("trial %d step %d: row %d Count=%d, want %d", trial, step, r, got, want)
				}
			}
			if n == 0 {
				continue
			}
			x := rng.Intn(n)
			if got, want := m.RowHas(i, x), mirror[i].Has(x); got != want {
				t.Fatalf("trial %d step %d: RowHas(%d,%d)=%v, want %v", trial, step, i, x, got, want)
			}
			if got, want := m.RowNextSet(i, x), mirror[i].NextSet(x); got != want {
				t.Fatalf("trial %d step %d: RowNextSet(%d,%d)=%d, want %d", trial, step, i, x, got, want)
			}
		}
	}
}

func TestMatrixShape(t *testing.T) {
	m := NewMatrix(3, 70)
	if m.Rows() != 3 || m.Len() != 70 {
		t.Fatalf("shape = %d×%d, want 3×70", m.Rows(), m.Len())
	}
	// 70 bits → 2 words per row → 3*2*8 bytes, and the Set-view accounting
	// must agree with the arena accounting (the §6.1 unification).
	if m.WordBytes() != 48 {
		t.Fatalf("WordBytes = %d, want 48", m.WordBytes())
	}
	if got := TotalWordBytes(m.Views()); got != m.WordBytes() {
		t.Fatalf("TotalWordBytes over views = %d, arena says %d", got, m.WordBytes())
	}
	if m.Row(1) != m.Row(1) {
		t.Fatal("Row must return a stable pointer")
	}
	var nilM *Matrix
	if nilM.WordBytes() != 0 {
		t.Fatal("nil matrix must weigh zero bytes")
	}
	// Mutation through a view is visible to the word-level API and stays in
	// its row.
	m.Row(1).Add(69)
	if !m.RowHas(1, 69) || m.RowHas(0, 69) || m.RowHas(2, 69) {
		t.Fatal("view mutation leaked across rows")
	}
	if m.RowNextSet(1, 0) != 69 || m.RowNextSet(0, 0) != None {
		t.Fatal("RowNextSet disagrees with view mutation")
	}
}
