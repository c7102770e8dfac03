package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"sync/atomic"
	"unsafe"

	"fastliveness/internal/backend"
	"fastliveness/internal/cfg"
	"fastliveness/internal/core"
	"fastliveness/internal/dom"
	"fastliveness/internal/ir"
)

// Binary layout, version 5 (all fixed-width fields little-endian):
//
//	offset  size  field
//	0       8     magic "FLSNAP01"
//	8       4     version (currently 5)
//	12      4     flags (FlagsFor bits)
//	16      8     fingerprint
//	24      4     nBlocks   (CFG nodes)
//	28      4     nEdges    (CFG edges)
//	32      4     nReach    (entry-reachable nodes, = R/T dimension)
//	36      4     nBack     (DFS back edges)
//	40      4     rBytes    (encoded length of the R section)
//	44      4     tBytes    (encoded length of the T section)
//	48      4     crcCFG    ┐
//	52      4     crcDFS    │ CRC-32C (Castagnoli) of each payload
//	56      4     crcDOM    │ section's bytes
//	60      4     crcR      │
//	64      4     crcT      ┘
//	68      4     CRC-32C of the header bytes [0,68)
//	72      ...   payload sections, back to back: CFG, DFS, DOM, R, T
//
// The structural sections persist every derivation product the checker
// adopts (as v3 did; v2 stored only the idom array and re-derived the
// rest at load), as flat 8-byte little-endian integer arrays:
//
//	CFG  succOff[n+1] succs[e] predOff[n+1] preds[e]
//	DFS  pre[n] post[n] parent[n] subtreeMax[n]
//	     preOrder[r] postOrder[r] backEdges[2*nBack] (s,t pairs)
//	DOM  idom[n] num[n] maxNum[n] order[r] childOff[n+1] children[r-1 if r>0]
//
// The header is 72 bytes and every structural element is 8 bytes, so all
// sections stay 8-aligned within the buffer and a 64-bit little-endian
// host aliases the integer arrays straight out of the mapping (adoptArray)
// — a warm load is offset arithmetic plus O(n+e) validation, no
// re-derivation.
//
// R is the checker's banded R (core.Checker.Arenas), exactly as it sits
// in memory: the index, nReach+1 (offset, lo) pairs of 4-byte int32s —
// row v's first word in the band arena and the dense word index of that
// word, closed by the pair (word count, 0) — then the band words, 8-byte
// words holding each row's first through last nonzero word of its dense
// nReach-bit row, back to back. The index is 8 · (nReach+1) bytes, so the
// words stay 8-aligned. The word count depends on the bands, so rBytes is
// only bounded by the dimensions (8 · (nReach+1) plus a multiple of 8, at
// most 8 · nReach · wordsPerRow(nReach) more) and pinned by the exact file
// length. T is the checker's CSR arena as 4-byte little-endian int32s:
// nReach+1 row offsets, then every row's sorted entries; tBytes is
// likewise bounded (at least 4 · (nReach+1), a multiple of 4) and pinned.
// On a 64-bit little-endian host all three arrays are adopted straight
// out of the mmap'd file, so no R word is allocated, zeroed, copied or
// even read at load time — the kernel pages the words in as queries touch
// them. core.Adopt reads the R index and T, a few bytes per node, once:
// its O(n) index check and O(n + entries) T check keep a corrupt index or
// arena from indexing out of range.
//
// One CRC per section, instead of v2's single file-wide checksum, buys
// two things. First, a load that fails an early check (version skew, a
// dimension or structural mismatch, a corrupt structural section) never
// pays the checksum scan for the sections it didn't reach — the store
// counts those as section skips. Second, and the reason the R and T
// arenas are sealed separately: a load may verify the small structural
// sections eagerly while deciding per policy whether to scan the arenas
// at all. Decode — the public entry point, and every path that copies the
// payload out of the buffer (big-endian or 32-bit hosts, forced-copy
// mode, the plain-read mmap fallback) — verifies all five sections,
// overlapping the arena scans with the structural adoption on a second
// goroutine. The store's aliasing mmap path instead verifies header + CFG
// + DFS + DOM and defers the arena scans entirely (see
// Store.SetVerifyArenas), because scanning them would re-introduce the
// linear pass over the R words that aliasing exists to remove.
//
// The corruption contract therefore splits by section. Structural
// corruption anywhere — header, CFG, DFS, DOM — fails a checksum on
// every path, and the load degrades to recompute, never a wrong answer;
// the adopting constructors and RestoreFrom's edge-for-edge comparison
// against the live function then re-validate the decoded values
// themselves. Arena corruption is caught on every copying path and under
// SetVerifyArenas; on the default aliasing path it is not scanned for at
// load, matching the usual mmap'd-format trade (LMDB and friends): the
// page cache, not the checksum, is what stands between a query and the
// disk — except that an R index out of shape (an offset that decreases or
// misses the word count, a band outside its dense row) or a T arena out
// of shape (an entry out of range, an unsorted row, broken offsets) fails
// core.Adopt and degrades to recompute; content that stays in shape — a
// flipped band word, a T entry traded for another in range — is answered
// from. (Version-4 files, whose R
// section was the dense matrix, fail the version check and are recomputed
// and rewritten in this format; so did v3 files under v4.)
const (
	headerSize    = 72
	formatVersion = 5
)

// numSections counts the checksum-sealed payload sections (CFG, DFS, DOM,
// R, T) — the unit of the store's section scan/skip accounting.
const numSections = 5

var magic = [8]byte{'F', 'L', 'S', 'N', 'A', 'P', '0', '1'}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxDim bounds the counts a header may claim, purely as an
// arithmetic-overflow guard; real validation is the exact section-length
// match below, which ties every count to the actual file size.
const maxDim = 1 << 30

// Snapshot is one function's decoded (or about-to-be-encoded) checker
// precomputation: the CFG adjacency arenas, the DFS and dominator-tree
// arrays, the banded R and the CSR T arena. The integer slices and the
// R and T arenas may alias a Decode input buffer — the zero-copy path —
// so a Snapshot adopted into a live checker must outlive its buffer, which
// it does by construction (the slices keep it reachable).
type Snapshot struct {
	Flags   uint32
	FP      uint64
	NBlocks int
	NEdges  int
	NReach  int

	// CFG section: prefix offsets into the flat edge arenas, in
	// cfg.FromFunc's layout (pred rows in source order).
	SuccOff, Succs []int
	PredOff, Preds []int

	// DFS section, mirroring cfg.DFS (subtreeMax included so IsAncestor
	// needs no re-traversal). BackEdges is flattened (s,t) pairs.
	Pre, Post, Parent, SubtreeMax []int
	PreOrder, PostOrder           []int
	BackEdges                     []int

	// DOM section, mirroring dom.Tree; ChildOff is an n+1 prefix-offset
	// array into the flat Children list.
	Idom, Num, MaxNum, Order []int
	ChildOff, Children       []int

	// RIndex and RWords are the checker's banded R — its (offset, lo)
	// index and the band words — and T its CSR T arena
	// (core.Checker.Arenas).
	RIndex []int32
	RWords []uint64
	T      []int32

	// size is the encoded byte length, recorded by Decode. WriteTo leaves
	// it alone — concurrent Saves of one snapshot may race — and SizeBytes
	// recomputes it from the arrays otherwise.
	size int64
}

// Capture packages a live checker's precomputation for serialization. The
// R band index and words, the T arena and the DFS/dominator arrays alias the live
// structures — WriteTo streams them straight into the file, and all of
// them are write-once at precompute time, so the alias is safe. Only the
// adjacency rows and children lists are flattened (copied) here, into the
// offset-array layout the format stores. Every checker can be captured:
// the error is always nil.
func Capture(p *backend.Prep, c *core.Checker) (*Snapshot, error) {
	rIdx, rWords, t := c.Arenas()
	g, d, tree := p.Graph, p.DFS, p.Tree
	flags := FlagsFor(c.Options())
	n := g.N()

	s := &Snapshot{
		Flags:   flags,
		FP:      Fingerprint(g, flags),
		NBlocks: n,
		NEdges:  g.NumEdges(),
		NReach:  d.NumReachable,

		Pre: d.Pre, Post: d.Post, Parent: d.Parent, SubtreeMax: d.SubtreeMax(),
		PreOrder: d.PreOrder, PostOrder: d.PostOrder,

		Idom: tree.Idom, Num: tree.Num, MaxNum: tree.MaxNum, Order: tree.Order,

		RIndex: rIdx,
		RWords: rWords,
		T:      t,
	}
	s.SuccOff, s.Succs = flattenRows(g.Succs, s.NEdges)
	s.PredOff, s.Preds = flattenRows(g.Preds, s.NEdges)
	s.BackEdges = make([]int, 2*len(d.BackEdges))
	for i, e := range d.BackEdges {
		s.BackEdges[2*i], s.BackEdges[2*i+1] = e.S, e.T
	}
	nc := 0
	if d.NumReachable > 0 {
		nc = d.NumReachable - 1
	}
	s.ChildOff, s.Children = flattenRows(tree.Children, nc)
	return s, nil
}

// flattenRows packs a [][]int into a prefix-offset array plus one flat
// arena of the given total size.
func flattenRows(rows [][]int, total int) (off, flat []int) {
	off = make([]int, len(rows)+1)
	flat = make([]int, 0, total)
	for i, row := range rows {
		off[i] = len(flat)
		flat = append(flat, row...)
	}
	off[len(rows)] = len(flat)
	return off, flat
}

// wordsPerRow mirrors the bitset package's row stride.
func wordsPerRow(n int) int { return (n + 63) / 64 }

// sectionSizes computes the three structural sections' byte lengths from
// the header dimensions, or ok=false for counts that are out of range
// (negative, absurdly large, or more reachable nodes than nodes).
func sectionSizes(nBlocks, nEdges, nReach, nBack int) (cfgB, dfsB, domB int64, ok bool) {
	if nBlocks < 0 || nEdges < 0 || nReach < 0 || nBack < 0 ||
		nBlocks > maxDim || nEdges > maxDim || nReach > maxDim || nBack > maxDim ||
		nReach > nBlocks {
		return 0, 0, 0, false
	}
	n, e, r, nb := int64(nBlocks), int64(nEdges), int64(nReach), int64(nBack)
	var nc int64
	if r > 0 {
		nc = r - 1
	}
	cfgB = 8 * (2*(n+1) + 2*e)
	dfsB = 8 * (4*n + 2*r + 2*nb)
	domB = 8 * (3*n + r + (n + 1) + nc)
	return cfgB, dfsB, domB, true
}

// encodedSize checks s's arrays against its dimensions — every section
// length must match what the header will claim — and returns the encoded
// byte length.
func (s *Snapshot) encodedSize() (int64, error) {
	n, e, r := s.NBlocks, s.NEdges, s.NReach
	nb := len(s.BackEdges) / 2
	cfgB, dfsB, domB, ok := sectionSizes(n, e, r, nb)
	if !ok {
		return 0, fmt.Errorf("snapshot: dimensions out of range (%d blocks, %d edges, %d reachable)", n, e, r)
	}
	nc := 0
	if r > 0 {
		nc = r - 1
	}
	switch {
	case len(s.SuccOff) != n+1 || len(s.Succs) != e || len(s.PredOff) != n+1 || len(s.Preds) != e:
		return 0, errors.New("snapshot: inconsistent CFG arrays")
	case len(s.Pre) != n || len(s.Post) != n || len(s.Parent) != n || len(s.SubtreeMax) != n ||
		len(s.PreOrder) != r || len(s.PostOrder) != r || len(s.BackEdges) != 2*nb:
		return 0, errors.New("snapshot: inconsistent DFS arrays")
	case len(s.Idom) != n || len(s.Num) != n || len(s.MaxNum) != n || len(s.Order) != r ||
		len(s.ChildOff) != n+1 || len(s.Children) != nc:
		return 0, errors.New("snapshot: inconsistent dominator arrays")
	case len(s.RIndex) != 2*(r+1) || int(s.RIndex[2*r]) != len(s.RWords) || int64(len(s.RWords)) > int64(r)*int64(wordsPerRow(r)):
		return 0, fmt.Errorf("snapshot: R index of %d values and %d band words do not describe %d rows", len(s.RIndex), len(s.RWords), r)
	case len(s.T) < r+1 || int(s.T[r]) != len(s.T)-(r+1):
		return 0, fmt.Errorf("snapshot: T arena of %d values does not hold %d offsets and the entries they count", len(s.T), r+1)
	}
	rB := 4*int64(len(s.RIndex)) + 8*int64(len(s.RWords))
	tB := 4 * int64(len(s.T))
	total := int64(headerSize) + cfgB + dfsB + domB + rB + tB
	if rB > 1<<32-1 || tB > 1<<32-1 || int64(int(total)) != total {
		return 0, fmt.Errorf("snapshot: %d-byte encoding exceeds the format's bounds", total)
	}
	return total, nil
}

// stageBytes sizes the staging chunk the portable encode fills between
// emits.
const stageBytes = 4096

// emitSection feeds payload section i's encoded bytes to fn, with the
// sections numbered in file order (CFG, DFS, DOM, R, T), in chunks that
// are only valid for the duration of the call. (Each slice literal stands
// alone on purpose: nested in a multi-element array literal, go1.24's
// compiler fills them in through a shared static temporary, which
// concurrent saves would race on.)
func (s *Snapshot) emitSection(i int, stage []byte, fn func([]byte) error) error {
	var ints [][]int
	switch i {
	case 0:
		ints = [][]int{s.SuccOff, s.Succs, s.PredOff, s.Preds}
	case 1:
		ints = [][]int{s.Pre, s.Post, s.Parent, s.SubtreeMax, s.PreOrder, s.PostOrder, s.BackEdges}
	case 2:
		ints = [][]int{s.Idom, s.Num, s.MaxNum, s.Order, s.ChildOff, s.Children}
	case 3:
		if err := emitArray(s.RIndex, stage, fn); err != nil {
			return err
		}
		return emitArray(s.RWords, stage, fn)
	default:
		return emitArray(s.T, stage, fn)
	}
	for _, a := range ints {
		if err := emitArray(a, stage, fn); err != nil {
			return err
		}
	}
	return nil
}

// elemWidth is an array element's width in the file: 4 bytes for the
// int32 R index and T arena, 8 for every other array.
func elemWidth[E int | uint64 | int32]() int {
	var zero E
	if _, ok := any(zero).(int32); ok {
		return 4
	}
	return 8
}

// emitArray feeds a's little-endian file encoding to fn. When the host
// already holds a in that form — elements of the file width,
// little-endian — it is one call on a byte view of the array itself;
// otherwise the elements are encoded through stage and fed to fn a chunk
// at a time.
func emitArray[E int | uint64 | int32](a []E, stage []byte, fn func([]byte) error) error {
	if len(a) == 0 {
		return nil
	}
	w := elemWidth[E]()
	if nativeLittleEndian && int(unsafe.Sizeof(a[0])) == w {
		return fn(unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), w*len(a)))
	}
	k := 0
	for _, v := range a {
		if w == 4 {
			binary.LittleEndian.PutUint32(stage[k:], uint32(v))
		} else {
			binary.LittleEndian.PutUint64(stage[k:], uint64(int64(v)))
		}
		if k += w; k == len(stage) {
			if err := fn(stage); err != nil {
				return err
			}
			k = 0
		}
	}
	if k == 0 {
		return nil
	}
	return fn(stage[:k])
}

// WriteTo serializes s to w — the format's one encoder. It validates the
// arrays against the dimensions, checksums each section over the live
// arrays, then writes the header and every section straight from the
// arrays, so no whole-file buffer is built: on a 64-bit little-endian
// host each array reaches w as one byte view of its own memory, and
// elsewhere through a fixed staging chunk. Nothing is written if
// validation fails.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	if _, err := s.encodedSize(); err != nil {
		return 0, err
	}
	stage := make([]byte, stageBytes)
	var hdr [headerSize]byte
	for i := 0; i < numSections; i++ {
		var crc uint32
		_ = s.emitSection(i, stage, func(b []byte) error { // cannot fail: the callback never does
			crc = crc32.Update(crc, crcTable, b)
			return nil
		})
		binary.LittleEndian.PutUint32(hdr[48+4*i:], crc)
	}
	copy(hdr[0:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], formatVersion)
	binary.LittleEndian.PutUint32(hdr[12:], s.Flags)
	binary.LittleEndian.PutUint64(hdr[16:], s.FP)
	binary.LittleEndian.PutUint32(hdr[24:], uint32(s.NBlocks))
	binary.LittleEndian.PutUint32(hdr[28:], uint32(s.NEdges))
	binary.LittleEndian.PutUint32(hdr[32:], uint32(s.NReach))
	binary.LittleEndian.PutUint32(hdr[36:], uint32(len(s.BackEdges)/2))
	binary.LittleEndian.PutUint32(hdr[40:], uint32(4*len(s.RIndex)+8*len(s.RWords)))
	binary.LittleEndian.PutUint32(hdr[44:], uint32(4*len(s.T)))
	binary.LittleEndian.PutUint32(hdr[68:], crc32.Checksum(hdr[:68], crcTable))

	var written int64
	write := func(b []byte) error {
		m, err := w.Write(b)
		written += int64(m)
		return err
	}
	if err := write(hdr[:]); err != nil {
		return written, err
	}
	for i := 0; i < numSections; i++ {
		if err := s.emitSection(i, stage, write); err != nil {
			return written, err
		}
	}
	return written, nil
}

// Encode serializes s into a freshly allocated, self-contained buffer of
// exactly the encoded size.
func (s *Snapshot) Encode() ([]byte, error) {
	size, err := s.encodedSize()
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	if _, err := s.WriteTo(buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode parses and validates a snapshot buffer: magic, version, the
// header checksum, exact section lengths for the claimed dimensions, and
// every section's checksum — all five; only the store's aliasing mmap
// path relaxes the arena scans, and it does so through the internal
// entry point, not this one. Any deviation — truncation, bit flips
// anywhere, an unknown version — is an error, never a panic and never a
// silently corrupt Snapshot. On the happy path the structural integer
// arrays and the R/T arenas alias buf (adoptArray), with the
// arena scans running concurrently with the structural verification.
func Decode(buf []byte) (*Snapshot, error) {
	s, _, err := decode(buf, true)
	return s, err
}

// decode is Decode plus two things the store needs: an explicit arena
// policy — verifyArenas=false lets an aliasing load skip the eager
// crcR/crcT scans (copying paths always verify, they touch every byte
// anyway) — and the number of payload-section checksum scans that
// actually ran (0..numSections); a load that fails early never reads the
// later sections, which the store surfaces as section skips.
func decode(buf []byte, verifyArenas bool) (*Snapshot, int, error) {
	if len(buf) < headerSize {
		return nil, 0, fmt.Errorf("snapshot: %d-byte buffer is shorter than the %d-byte header", len(buf), headerSize)
	}
	if [8]byte(buf[0:8]) != magic {
		return nil, 0, errors.New("snapshot: bad magic")
	}
	if v := binary.LittleEndian.Uint32(buf[8:]); v != formatVersion {
		return nil, 0, fmt.Errorf("snapshot: unsupported format version %d (want %d)", v, formatVersion)
	}
	if got, want := crc32.Checksum(buf[:68], crcTable), binary.LittleEndian.Uint32(buf[68:]); got != want {
		return nil, 0, fmt.Errorf("snapshot: header checksum %08x does not match %08x", got, want)
	}
	s := &Snapshot{
		Flags:   binary.LittleEndian.Uint32(buf[12:]),
		FP:      binary.LittleEndian.Uint64(buf[16:]),
		NBlocks: int(binary.LittleEndian.Uint32(buf[24:])),
		NEdges:  int(binary.LittleEndian.Uint32(buf[28:])),
		NReach:  int(binary.LittleEndian.Uint32(buf[32:])),
	}
	nBack := int(binary.LittleEndian.Uint32(buf[36:]))
	rB := int64(binary.LittleEndian.Uint32(buf[40:]))
	tB := int64(binary.LittleEndian.Uint32(buf[44:]))
	crcCFG := binary.LittleEndian.Uint32(buf[48:])
	crcDFS := binary.LittleEndian.Uint32(buf[52:])
	crcDOM := binary.LittleEndian.Uint32(buf[56:])
	crcR := binary.LittleEndian.Uint32(buf[60:])
	crcT := binary.LittleEndian.Uint32(buf[64:])

	cfgB, dfsB, domB, ok := sectionSizes(s.NBlocks, s.NEdges, s.NReach, nBack)
	idxB := 8 * (int64(s.NReach) + 1)
	nWords := (rB - idxB) / 8
	if !ok || rB < idxB || rB%8 != 0 || nWords > int64(s.NReach)*int64(wordsPerRow(s.NReach)) ||
		tB < 4*(int64(s.NReach)+1) || tB%4 != 0 {
		return nil, 0, fmt.Errorf("snapshot: implausible dimensions (%d blocks, %d edges, %d reachable, %d back edges, R %d, T %d)",
			s.NBlocks, s.NEdges, s.NReach, nBack, rB, tB)
	}
	total := int64(headerSize) + cfgB + dfsB + domB + rB + tB
	if int64(int(total)) != total || int64(len(buf)) != total {
		return nil, 0, fmt.Errorf("snapshot: buffer is %d bytes, want %d for the claimed dimensions", len(buf), total)
	}
	dfsOff := headerSize + int(cfgB)
	domOff := dfsOff + int(dfsB)
	rOff := domOff + int(domB)
	wOff := rOff + int(idxB)
	tOff := rOff + int(rB)

	// The R/T arenas — R's band words are the bulk — are adopted zero-copy
	// when the host allows, which for an mmap'd buffer means no R word is
	// read at load (core.Adopt reads only the R index), or decoded by copy
	// otherwise. A copying path verifies the arena checksums while the
	// bytes are in hand (it pays a linear pass regardless); the aliasing
	// path scans them only when the caller asks. Scans run on their own
	// goroutine while this one verifies and adopts the structural
	// sections, so a multicore scanning load pays max(scan, adopt), not
	// the sum.
	var iAliased, rAliased, tAliased bool
	s.RIndex, iAliased = adoptArray[int32](buf[rOff:wOff], 2*(s.NReach+1))
	s.RWords, rAliased = adoptArray[uint64](buf[wOff:tOff], int(nWords))
	s.T, tAliased = adoptArray[int32](buf[tOff:], int(tB/4))
	rtScanned := 0
	var rtErr error
	done := make(chan struct{})
	if verifyArenas || !iAliased || !rAliased || !tAliased {
		go func() {
			defer close(done)
			rtScanned = 1
			if got := crc32.Checksum(buf[rOff:tOff], crcTable); got != crcR {
				rtErr = fmt.Errorf("snapshot: R section checksum %08x does not match %08x", got, crcR)
				return
			}
			rtScanned = 2
			if got := crc32.Checksum(buf[tOff:], crcTable); got != crcT {
				rtErr = fmt.Errorf("snapshot: T section checksum %08x does not match %08x", got, crcT)
			}
		}()
	} else {
		close(done)
	}

	scanned := 0
	structural := func() error {
		scanned++
		if got := crc32.Checksum(buf[headerSize:dfsOff], crcTable); got != crcCFG {
			return fmt.Errorf("snapshot: CFG section checksum %08x does not match %08x", got, crcCFG)
		}
		scanned++
		if got := crc32.Checksum(buf[dfsOff:domOff], crcTable); got != crcDFS {
			return fmt.Errorf("snapshot: DFS section checksum %08x does not match %08x", got, crcDFS)
		}
		scanned++
		if got := crc32.Checksum(buf[domOff:rOff], crcTable); got != crcDOM {
			return fmt.Errorf("snapshot: DOM section checksum %08x does not match %08x", got, crcDOM)
		}
		n, e, r := s.NBlocks, s.NEdges, s.NReach
		nc := 0
		if r > 0 {
			nc = r - 1
		}
		cur := headerSize
		next := func(count int) []int {
			a, _ := adoptArray[int](buf[cur:], count)
			cur += 8 * count
			return a
		}
		s.SuccOff, s.Succs = next(n+1), next(e)
		s.PredOff, s.Preds = next(n+1), next(e)
		s.Pre, s.Post, s.Parent, s.SubtreeMax = next(n), next(n), next(n), next(n)
		s.PreOrder, s.PostOrder = next(r), next(r)
		s.BackEdges = next(2 * nBack)
		s.Idom, s.Num, s.MaxNum, s.Order = next(n), next(n), next(n), next(r)
		s.ChildOff, s.Children = next(n+1), next(nc)
		return nil
	}()
	<-done
	if structural != nil {
		return nil, scanned + rtScanned, structural
	}
	if rtErr != nil {
		return nil, scanned + rtScanned, rtErr
	}
	s.size = total
	return s, scanned + rtScanned, nil
}

// nativeLittleEndian reports whether the host stores words in the file's
// byte order, one of the preconditions for aliasing file bytes directly.
var nativeLittleEndian = func() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// intIs64 gates aliasing file int64s as Go ints.
const intIs64 = bits.UintSize == 64

// forceCopyDecode, when set, disables adoptArray's aliasing fast path so
// the portable per-element decode — the code big-endian and 32-bit hosts
// always run — executes on any host. Test hook; see SetForceCopyDecode.
var forceCopyDecode atomic.Bool

// SetForceCopyDecode forces (or, with false, re-enables auto-detection
// for) the portable non-aliasing decode path, so CI on 64-bit
// little-endian machines can cover the byte-by-byte code big-endian and
// 32-bit platforms depend on. Test instrumentation only; toggle it before
// any loads, not concurrently with them.
func SetForceCopyDecode(v bool) { forceCopyDecode.Store(v) }

// decodeAliases reports whether Decode's arrays alias the input buffer on
// this host (the store must then keep file mappings alive as long as the
// decoded snapshot).
func decodeAliases() bool {
	return intIs64 && nativeLittleEndian && !forceCopyDecode.Load()
}

// adoptArray views the first n file-width elements of b as an []E —
// zero-copy (aliased=true) when decodeAliases holds and the base is
// 8-aligned (the header and every section boundary are multiples of 8,
// so within any fresh []byte or page-aligned mapping every array
// qualifies). The condition is the same for every array, so a Snapshot
// never mixes arrays that alias the buffer with arrays that would outlive
// it under the store's unmap policy. Otherwise it returns a decoded copy,
// so the function is correct on any host; callers must then verify the
// source bytes' checksum themselves, which the aliasing path may defer
// for the arenas. Values are validated by the adopting constructors, not
// here.
func adoptArray[E int | uint64 | int32](b []byte, n int) (out []E, aliased bool) {
	if n == 0 {
		return nil, true
	}
	if decodeAliases() && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*E)(unsafe.Pointer(&b[0])), n), true
	}
	out = make([]E, n)
	if elemWidth[E]() == 4 {
		for i := range out {
			out[i] = E(int32(binary.LittleEndian.Uint32(b[i*4:])))
		}
	} else {
		for i := range out {
			out[i] = E(int64(binary.LittleEndian.Uint64(b[i*8:])))
		}
	}
	return out, false
}

// Restore rebuilds a ready-to-query checker result for f from the
// snapshot, skipping both the R/T precompute passes and the linear
// derivations: graph, DFS and dominator tree are adopted straight from
// the snapshot's arrays after validation.
//
// Correctness gate: the snapshot must describe f's *current* CFG under
// the caller's options. Restore fingerprints f (without building its
// graph) and rejects mismatches; RestoreFrom then cross-checks the stored
// successor structure edge-for-edge against f itself and runs every
// adopting constructor's validation — so a snapshot picked up for the
// wrong function, or raced with a CFG edit, fails closed into the
// recompute path rather than answering from someone else's sets.
func (s *Snapshot) Restore(f *ir.Func, opts core.Options) (*backend.CheckerResult, error) {
	if err := ir.Verify(f); err != nil {
		return nil, err
	}
	fp, index := FingerprintFunc(f, s.Flags)
	if fp != s.FP {
		return nil, fmt.Errorf("snapshot: fingerprint %016x does not match function's %016x", s.FP, fp)
	}
	return s.RestoreFrom(f, index, opts)
}

// RestoreFrom is Restore for a caller that has already fingerprinted f
// (obtaining the block-ID index), matched the fingerprint against s.FP,
// and warrants that f passes ir.Verify — the engine's load path computes
// the fingerprint to key its store lookup and tracks verification per
// edit epoch, and this entry point keeps it from paying for either twice.
//
// Validation still runs in full: flags, structural counts, an
// edge-for-edge comparison of the stored successor rows against f's
// current blocks, and the shape/consistency checks inside
// cfg.AdoptGraph, cfg.AdoptDFS, dom.Adopt and core.Adopt (which checks
// the shape of the R index and the T arena). What is *trusted* is the
// content the file captured from a live checker: which DFS visit order
// was taken, which edges are back edges, the R band words and which nodes
// each T row lists — checksummed at save, scanned at load per the store's
// arena-verification policy (see the format comment's corruption
// contract).
func (s *Snapshot) RestoreFrom(f *ir.Func, index []int, opts core.Options) (*backend.CheckerResult, error) {
	if got := FlagsFor(opts); got != s.Flags {
		return nil, fmt.Errorf("snapshot: flags %#x do not match requested options (%#x)", s.Flags, got)
	}
	n := len(f.Blocks)
	if n != s.NBlocks {
		return nil, fmt.Errorf("snapshot: function has %d blocks, snapshot has %d", n, s.NBlocks)
	}
	if s.NReach != s.NBlocks {
		return nil, fmt.Errorf("snapshot: %d of %d blocks unreachable from entry", s.NBlocks-s.NReach, s.NBlocks)
	}
	g, err := cfg.AdoptGraph(s.SuccOff, s.Succs, s.PredOff, s.Preds)
	if err != nil {
		return nil, err
	}
	// The stored adjacency must be f's adjacency, today: same row lengths,
	// same successors in the same order. This is the edge-level form of
	// the fingerprint match, and it makes the adopted graph
	// indistinguishable from cfg.FromFunc(f)'s.
	for i, b := range f.Blocks {
		row := g.Succs[i]
		if len(row) != len(b.Succs) {
			return nil, fmt.Errorf("snapshot: block %d has %d successors, snapshot has %d", i, len(b.Succs), len(row))
		}
		for j, e := range b.Succs {
			if row[j] != index[e.B.ID] {
				return nil, fmt.Errorf("snapshot: block %d successor %d drifted", i, j)
			}
		}
	}
	var edges []cfg.Edge
	if nb := len(s.BackEdges) / 2; nb > 0 {
		edges = make([]cfg.Edge, nb)
		for i := range edges {
			edges[i] = cfg.Edge{S: s.BackEdges[2*i], T: s.BackEdges[2*i+1]}
		}
	}
	d, err := cfg.AdoptDFS(g, s.Pre, s.Post, s.Parent, s.SubtreeMax, s.PreOrder, s.PostOrder, edges)
	if err != nil {
		return nil, err
	}
	tree, err := dom.Adopt(g, d, s.Idom, s.Num, s.MaxNum, s.Order, s.ChildOff, s.Children)
	if err != nil {
		return nil, err
	}
	c, err := core.Adopt(g, d, tree, opts, s.RIndex, s.RWords, s.T)
	if err != nil {
		return nil, err
	}
	p := &backend.Prep{F: f, Graph: g, Index: index, DFS: d, Tree: tree}
	return backend.NewCheckerResultFrom(p, c), nil
}

// SizeBytes returns the encoded size of s — recorded by Decode, or
// computed from the dimensions and the lengths of the R band words and
// the T arena (neither is a function of the dimensions); 0 for a snapshot
// that cannot be encoded.
func (s *Snapshot) SizeBytes() int64 {
	if s.size > 0 {
		return s.size
	}
	size, _ := s.encodedSize()
	return size
}
