// Package snapshot persists the checker's CFG-only precomputation across
// processes: a versioned, per-section-checksummed binary format holding
// the CFG edge arenas, the DFS and dominator-tree arrays, the dense R
// bitset matrix and the CSR T arena, keyed by a structural CFG
// fingerprint, plus a size-bounded on-disk Store the engine uses as a
// disk tier under its LRU.
//
// The design leans on the paper's invalidation asymmetry (§4): R and T
// depend only on CFG structure, so the cache key hashes block structure and
// successor lists — never block IDs, instructions or operands. A process
// that edited every instruction in a function still warm-starts from
// yesterday's snapshot; only a CFG edit changes the fingerprint and forces
// the precompute to run again.
package snapshot

import (
	"fastliveness/internal/cfg"
	"fastliveness/internal/core"
	"fastliveness/internal/ir"
)

// Format flag bits. Only knobs that change the *content* of the R/T arenas
// belong here: the T-set strategy does (exact and propagate produce
// different — though answer-equivalent — CSR T arenas), while the
// query-time ablations (NoSkipSubtrees, NoReducibleFastPath) do not, so
// configs differing only in those share snapshots. The zero Options, the
// paper's propagate configuration, map to flag word 0.
const (
	flagStrategyExact uint32 = 1 << 0
)

// FlagsFor maps checker options to the snapshot flag word — the
// content-affecting subset only (see the flag constants).
func FlagsFor(opts core.Options) uint32 {
	var f uint32
	if opts.Strategy == core.StrategyExact {
		f |= flagStrategyExact
	}
	return f
}

// Fingerprint hashes the structural identity of g under the given analysis
// flags: FNV-1a 64 over a varint stream of (flags, N, then per node its
// successor count followed by the successor node indices, in node order).
// The framing is injective — every list is length-prefixed — so two graphs
// collide only by genuine 64-bit hash collision, not by ambiguous
// serialization. Node indices are CFG node numbers (block positions), not
// block IDs, so renumbering blocks without changing structure preserves the
// fingerprint, as does any instruction-level edit.
//
// The hash is a fixed public function of the graph — no per-process seed —
// because fingerprints name files shared across processes and runs.
func Fingerprint(g *cfg.Graph, flags uint32) uint64 {
	h := newFNV()
	h.uvarint(uint64(flags))
	h.uvarint(uint64(g.N()))
	for _, succs := range g.Succs {
		h.uvarint(uint64(len(succs)))
		for _, s := range succs {
			h.uvarint(uint64(s))
		}
	}
	return uint64(h)
}

// FingerprintFunc computes Fingerprint(g, flags) for the graph
// cfg.FromFunc(f) would extract, without building the graph — bit
// identical, because the hash stream depends only on the per-block
// successor counts and node indices, both of which read straight off
// f.Blocks. It also returns the block-ID→node index (FromFunc's second
// result), which the hash needs anyway and RestoreFrom wants next. This
// is the warm path's key derivation: since snapshot format v3 the graph
// itself is adopted from the file, so a hit never runs FromFunc at all.
func FingerprintFunc(f *ir.Func, flags uint32) (uint64, []int) {
	index := make([]int, f.NumBlocks())
	for i := range index {
		index[i] = -1
	}
	for i, b := range f.Blocks {
		index[b.ID] = i
	}
	h := newFNV()
	h.uvarint(uint64(flags))
	h.uvarint(uint64(len(f.Blocks)))
	for _, b := range f.Blocks {
		h.uvarint(uint64(len(b.Succs)))
		for _, e := range b.Succs {
			h.uvarint(uint64(index[e.B.ID]))
		}
	}
	return uint64(h), index
}

// fnv64 is FNV-1a with 64-bit state, written out inline (hash/fnv would
// force a []byte round trip per write; this streams words directly).
type fnv64 uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func newFNV() fnv64 { return fnvOffset64 }

func (h *fnv64) byte(b byte) {
	*h = (*h ^ fnv64(b)) * fnvPrime64
}

// uvarint feeds x to the hash in base-128 varint framing, the same shape
// encoding/binary.PutUvarint produces.
func (h *fnv64) uvarint(x uint64) {
	for x >= 0x80 {
		h.byte(byte(x) | 0x80)
		x >>= 7
	}
	h.byte(byte(x))
}
