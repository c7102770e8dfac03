package snapshot_test

// External test package: the corpus comes from difftest, which imports
// fastliveness (and, now, this package) — an in-package test would cycle.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"fastliveness/internal/backend"
	"fastliveness/internal/backend/difftest"
	"fastliveness/internal/core"
	"fastliveness/internal/ir"
	"fastliveness/internal/snapshot"
)

// captureOne builds a fresh checker for f and captures it.
func captureOne(t testing.TB, i int, seed int64) *snapshot.Snapshot {
	t.Helper()
	f := difftest.Corpus(i+1, seed)[i]
	p, err := backend.Prepare(f)
	if err != nil {
		t.Fatal(err)
	}
	cr := backend.NewCheckerResult(p, core.Options{})
	s, err := snapshot.Capture(p, cr.Checker())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for i := 0; i < 16; i++ {
		s := captureOne(t, i, 11)
		buf, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := snapshot.Decode(buf)
		if err != nil {
			t.Fatalf("decode snapshot %d: %v", i, err)
		}
		if got.Flags != s.Flags || got.FP != s.FP ||
			got.NBlocks != s.NBlocks || got.NEdges != s.NEdges || got.NReach != s.NReach {
			t.Fatalf("snapshot %d: header fields changed: %+v vs %+v", i, got, s)
		}
		for j := range s.Idom {
			if got.Idom[j] != s.Idom[j] {
				t.Fatalf("snapshot %d: idom[%d] = %d, want %d", i, j, got.Idom[j], s.Idom[j])
			}
		}
		if len(got.RWords) != len(s.RWords) || len(got.TWords) != len(s.TWords) {
			t.Fatalf("snapshot %d: arena lengths changed", i)
		}
		for j := range s.RWords {
			if got.RWords[j] != s.RWords[j] {
				t.Fatalf("snapshot %d: R word %d changed", i, j)
			}
		}
		for j := range s.TWords {
			if got.TWords[j] != s.TWords[j] {
				t.Fatalf("snapshot %d: T word %d changed", i, j)
			}
		}
		// Determinism: re-encoding the decoded snapshot is byte-identical.
		buf2, err := got.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, buf2) {
			t.Fatalf("snapshot %d: re-encode is not byte-identical", i)
		}
	}
}

// Every truncation length must be rejected cleanly.
func TestDecodeRejectsTruncation(t *testing.T) {
	buf, err := captureOne(t, 3, 12).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(buf); n++ {
		if _, err := snapshot.Decode(buf[:n]); err == nil {
			t.Fatalf("decode accepted a %d/%d-byte truncation", n, len(buf))
		}
	}
}

// Every single-bit flip anywhere in the file must be rejected: the header
// checksum covers bytes [0,68) (a flip in its own field mismatches the
// recomputed value), and every payload byte is covered by exactly one of
// the five section checksums.
func TestDecodeRejectsBitFlips(t *testing.T) {
	buf, err := captureOne(t, 5, 13).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		for bit := 0; bit < 8; bit++ {
			buf[i] ^= 1 << bit
			if _, err := snapshot.Decode(buf); err == nil {
				t.Fatalf("decode accepted a flip of byte %d bit %d", i, bit)
			}
			buf[i] ^= 1 << bit
		}
	}
	if _, err := snapshot.Decode(buf); err != nil {
		t.Fatalf("pristine buffer no longer decodes: %v", err)
	}
}

// A future format version must be rejected by the version check, not by
// an incidental checksum failure — re-seal the checksum so only the
// version differs.
func TestDecodeRejectsWrongVersion(t *testing.T) {
	buf, err := captureOne(t, 2, 14).Encode()
	if err != nil {
		t.Fatal(err)
	}
	current := binary.LittleEndian.Uint32(buf[8:])
	binary.LittleEndian.PutUint32(buf[8:], current+1)
	reseal(buf)
	if _, err := snapshot.Decode(buf); err == nil {
		t.Fatalf("decode accepted format version %d", current+1)
	} else if !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version rejected by %q, want the version check", err)
	}
	binary.LittleEndian.PutUint32(buf[8:], current)
	reseal(buf)
	if _, err := snapshot.Decode(buf); err != nil {
		t.Fatalf("restored buffer no longer decodes: %v", err)
	}
}

// A version mismatch must be diagnosed before the header checksum: the
// version check is what routes real old-format files into the clean
// recompute-then-rewrite degradation, and old headers place their checksum
// elsewhere, so checking CRC first would misreport every v2 file as
// corrupt rather than outdated. Flipping only the version byte (exactly
// what the CI version-skew smoke does with dd) must therefore yield a
// version error even though the header checksum no longer matches.
func TestVersionCheckPrecedesChecksum(t *testing.T) {
	buf, err := captureOne(t, 2, 14).Encode()
	if err != nil {
		t.Fatal(err)
	}
	buf[8] = 2 // claim v2 without resealing
	if _, err := snapshot.Decode(buf); err == nil {
		t.Fatal("decode accepted a version-skewed buffer")
	} else if !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("version skew rejected by %q, want a version-2 error", err)
	}
}

// Dimension fields that change the payload size are tied to the actual
// byte count even with a valid header checksum: under v3 every header
// dimension — block, edge and reachable counts, and the R/T section byte
// lengths — feeds the exact-total-length check, so a header claiming more
// (or less) data than the buffer holds must fail that check, never
// over-read. (Lies that preserve the totals are caught by the section
// checksums and by Restore's cross-checks against the live function;
// difftest exercises that side.)
func TestDecodeRejectsResealedDimensionLies(t *testing.T) {
	buf, err := captureOne(t, 4, 15).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, lie := range []struct {
		off   int
		delta uint32
	}{
		{24, 2}, // nBlocks: sizes the CFG/DFS/DOM sections
		{28, 1}, // nEdges: sizes the CFG section's succ/pred arrays
		{32, 1}, // nReach: sizes the DFS/DOM order arrays
		{40, 8}, // rBytes: the R section's encoded length
		{44, 8}, // tBytes: the T section's encoded length
	} {
		orig := binary.LittleEndian.Uint32(buf[lie.off:])
		binary.LittleEndian.PutUint32(buf[lie.off:], orig+lie.delta)
		reseal(buf)
		if _, err := snapshot.Decode(buf); err == nil {
			t.Fatalf("decode accepted an inflated count at offset %d", lie.off)
		}
		binary.LittleEndian.PutUint32(buf[lie.off:], orig)
	}
	reseal(buf)
	if _, err := snapshot.Decode(buf); err != nil {
		t.Fatalf("restored buffer no longer decodes: %v", err)
	}
}

// reseal recomputes the v3 header checksum after a deliberate header
// edit, mirroring the format's definition (CRC-32C of bytes [0,68) stored
// at [68,72); the payload sections carry their own checksums and are
// untouched by header edits).
func reseal(buf []byte) {
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	binary.LittleEndian.PutUint32(buf[68:], crc32.Checksum(buf[:68], castagnoli))
}

// legacyV2Encode serializes s in the retired v2 layout: a 48-byte header
// (single file-wide CRC-32C at [40,48) over everything but itself) and a
// payload of idom as int32s, padding, then the dense — not run-length
// encoded — R and T arenas. Byte-faithful to what v2 Save wrote, so the
// migration tests exercise exactly the files a pre-v3 process left behind.
func legacyV2Encode(t testing.TB, s *snapshot.Snapshot) []byte {
	t.Helper()
	idomBytes := 4 * s.NBlocks
	pad := (8 - idomBytes%8) % 8
	buf := make([]byte, 48+idomBytes+pad+8*(len(s.RWords)+len(s.TWords)))
	copy(buf, "FLSNAP01")
	binary.LittleEndian.PutUint32(buf[8:], 2)
	binary.LittleEndian.PutUint32(buf[12:], s.Flags)
	binary.LittleEndian.PutUint64(buf[16:], s.FP)
	binary.LittleEndian.PutUint32(buf[24:], uint32(s.NBlocks))
	binary.LittleEndian.PutUint32(buf[28:], uint32(s.NEdges))
	binary.LittleEndian.PutUint32(buf[32:], uint32(s.NReach))
	p := buf[48:]
	for i, d := range s.Idom {
		binary.LittleEndian.PutUint32(p[4*i:], uint32(int32(d)))
	}
	p = p[idomBytes+pad:]
	for i, w := range s.RWords {
		binary.LittleEndian.PutUint64(p[8*i:], w)
	}
	p = p[8*len(s.RWords):]
	for i, w := range s.TWords {
		binary.LittleEndian.PutUint64(p[8*i:], w)
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	c := crc32.Update(0, castagnoli, buf[:40])
	c = crc32.Update(c, castagnoli, buf[48:])
	binary.LittleEndian.PutUint64(buf[40:], uint64(c))
	return buf
}

// A genuine v2 file — valid under the old format's own checksum — must be
// rejected by the version check with a clean "unsupported version" error,
// not misdiagnosed as corruption.
func TestDecodeRejectsLegacyV2(t *testing.T) {
	s := captureOne(t, 6, 22)
	buf := legacyV2Encode(t, s)
	_, err := snapshot.Decode(buf)
	if err == nil {
		t.Fatal("decode accepted a v2 file")
	}
	if !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("v2 file rejected by %q, want a version-2 error", err)
	}
}

// The cross-process migration path: a store directory holding a real v2
// file (what a pre-v3 process left behind) must degrade its load to a
// clean miss, delete the outdated file so Contains cannot dedupe away the
// repairing save, and accept the v3 rewrite.
func TestStoreMigratesLegacyV2(t *testing.T) {
	dir := t.TempDir()
	st, err := snapshot.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := captureOne(t, 7, 23)
	v2 := legacyV2Encode(t, s)
	path := filepath.Join(dir, fpName(s.FP))
	if err := os.WriteFile(path, v2, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(s.FP); err == nil || err == snapshot.ErrNotFound {
		t.Fatalf("v2 load: got %v, want a version error", err)
	}
	if st.Contains(s.FP) {
		t.Fatal("v2 file survived the failed load; saves would dedupe against it forever")
	}
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load(s.FP)
	if err != nil {
		t.Fatalf("post-migration load: %v", err)
	}
	if got.FP != s.FP || got.NBlocks != s.NBlocks || got.NReach != s.NReach {
		t.Fatal("post-migration load returned a different snapshot")
	}
}

// FuzzDecode hammers the parser with corrupted and arbitrary buffers: the
// contract under test is "error or valid snapshot, never a panic". Seeds
// include a genuine encoded snapshot (so mutation explores the v3
// neighborhood), a genuine legacy v2 file (so mutation explores the
// version-skew path old stores feed the decoder), and assorted prefixes.
func FuzzDecode(f *testing.F) {
	s := captureOne(f, 1, 16)
	buf, err := s.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buf)
	f.Add(legacyV2Encode(f, s))
	f.Add([]byte{})
	f.Add(buf[:48])
	f.Add(buf[:72])
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := snapshot.Decode(data)
		if err == nil && s == nil {
			t.Fatal("nil snapshot with nil error")
		}
	})
}

// The portable load path — plain file read instead of mmap, per-word copy
// instead of aliasing — must observe the same bytes and produce the same
// snapshot as the zero-copy fast path. CI runs this on mmap-capable
// platforms, so the code big-endian and mmap-refusing systems always run
// stays covered; the store round trip also exercises the section-checksum
// scans on both paths.
func TestForcedFallbackLoadMatchesMmap(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 8; i++ {
		s := captureOne(t, i, 24)
		fast, err := snapshot.Open(filepath.Join(dir, "fast"), 0)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := snapshot.Open(filepath.Join(dir, "slow"), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := fast.Save(s); err != nil {
			t.Fatal(err)
		}
		if err := slow.Save(s); err != nil {
			t.Fatal(err)
		}
		a, err := fast.Load(s.FP)
		if err != nil {
			t.Fatalf("mmap load %d: %v", i, err)
		}
		snapshot.SetForceReadFallback(true)
		snapshot.SetForceCopyDecode(true)
		b, err := slow.Load(s.FP)
		snapshot.SetForceReadFallback(false)
		snapshot.SetForceCopyDecode(false)
		if err != nil {
			t.Fatalf("fallback load %d: %v", i, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("snapshot %d: fallback load differs from mmap load", i)
		}
	}
}

// Store accounting: a file-backed load scans the three structural
// sections and, on an aliasing host, skips the two arena sections — a
// copying host (32-bit or big-endian) scans all five — a decoded-cache
// hit scans none, SetVerifyArenas makes a file-backed load scan all
// five, and a load that dies at an early validation skips the sections
// it never reached.
func TestStoreStatsSectionAccounting(t *testing.T) {
	const numSections = 5
	wantScans, wantSkips := int64(3), int64(2)
	if !aliasingHost() {
		wantScans, wantSkips = numSections, 0
	}
	dir := t.TempDir()
	st, err := snapshot.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := captureOne(t, 9, 25)
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(s.FP); err != nil {
		t.Fatal(err)
	}
	got := st.Stats()
	if got.DecodedCacheHits != 0 || got.DecodedCacheMisses != 1 ||
		got.SectionScans != wantScans || got.SectionSkips != wantSkips {
		t.Fatalf("after file-backed load: %+v", got)
	}
	if _, err := st.Load(s.FP); err != nil {
		t.Fatal(err)
	}
	got = st.Stats()
	if got.DecodedCacheHits != 1 || got.DecodedCacheMisses != 1 ||
		got.SectionScans != wantScans || got.SectionSkips != wantSkips+numSections {
		t.Fatalf("after cached load: %+v", got)
	}

	// Same file through a verify-arenas store: all five sections scanned.
	verif, err := snapshot.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	verif.SetVerifyArenas(true)
	if _, err := verif.Load(s.FP); err != nil {
		t.Fatal(err)
	}
	got = verif.Stats()
	if got.SectionScans != numSections || got.SectionSkips != 0 {
		t.Fatalf("after verify-arenas load: %+v", got)
	}

	// A version-skewed file fails before any section scan: all skipped.
	st2, err := snapshot.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st2.Dir(), fpName(s.FP)), legacyV2Encode(t, s), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Load(s.FP); err == nil {
		t.Fatal("v2 load succeeded")
	}
	got = st2.Stats()
	if got.SectionScans != 0 || got.SectionSkips != numSections {
		t.Fatalf("after version-skewed load: %+v", got)
	}
}

// Structurally distinct graphs must get distinct fingerprints across the
// corpus (collisions are possible in principle at 64 bits; at corpus scale
// one would indicate a framing bug, not bad luck).
func TestFingerprintDistinctAcrossCorpus(t *testing.T) {
	seen := make(map[uint64]string)
	for i, f := range difftest.Corpus(80, 17) {
		p, err := backend.Prepare(f)
		if err != nil {
			t.Fatal(err)
		}
		canon := canonical(p)
		fp := snapshot.Fingerprint(p.Graph, 0)
		if prev, ok := seen[fp]; ok && prev != canon {
			t.Fatalf("corpus func %d: fingerprint %016x collides across distinct structures", i, fp)
		} else if ok && prev == canon {
			continue // structurally identical functions must collide
		}
		seen[fp] = canon
		// Flags are part of the key: the same graph under the exact
		// strategy must not alias the propagate-strategy snapshot.
		if alt := snapshot.Fingerprint(p.Graph, snapshot.FlagsFor(core.Options{Strategy: core.StrategyExact})); alt == fp {
			t.Fatalf("corpus func %d: exact and propagate share fingerprint %016x", i, fp)
		}
	}
	if len(seen) < 2 {
		t.Fatalf("corpus produced only %d distinct structures", len(seen))
	}
}

func canonical(p *backend.Prep) string {
	var b bytes.Buffer
	for _, succs := range p.Graph.Succs {
		fmt.Fprintf(&b, "%v;", succs)
	}
	return b.String()
}

func TestStoreSaveLoadGC(t *testing.T) {
	dir := t.TempDir()
	st, err := snapshot.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []*snapshot.Snapshot
	for i := 0; i < 6; i++ {
		s := captureOne(t, 2*i, 18) // even corpus indices: structured gen, varied shapes
		if err := st.Save(s); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, s)
	}
	distinct := make(map[uint64]*snapshot.Snapshot)
	for _, s := range snaps {
		distinct[s.FP] = s
	}
	if st.Len() != len(distinct) {
		t.Fatalf("store holds %d files, want %d", st.Len(), len(distinct))
	}
	for fp := range distinct {
		if !st.Contains(fp) {
			t.Fatalf("store lost fingerprint %016x", fp)
		}
		if _, err := st.Load(fp); err != nil {
			t.Fatalf("load %016x: %v", fp, err)
		}
	}
	if _, err := st.Load(0xdeadbeef); err != snapshot.ErrNotFound {
		t.Fatalf("missing fingerprint: got %v, want ErrNotFound", err)
	}

	// GC: re-open with a budget that fits roughly half the files, stamp
	// deterministic mtimes (oldest first in snaps order), and save one
	// more — the oldest must go, the newest must stay.
	total := st.SizeBytes()
	bounded, err := snapshot.Open(dir, total/2)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	base := time.Now().Add(-time.Hour)
	for fp := range distinct {
		path := filepath.Join(dir, fpName(fp))
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatal(err)
		}
		i++
	}
	fresh := captureOne(t, 13, 19)
	if err := bounded.Save(fresh); err != nil {
		t.Fatal(err)
	}
	if got := bounded.SizeBytes(); got > total/2 {
		t.Fatalf("store holds %d bytes after GC, budget %d", got, total/2)
	}
	if !bounded.Contains(fresh.FP) {
		t.Fatal("GC deleted the snapshot just saved")
	}
}

// A budget smaller than a single snapshot must keep the file just written
// (Save must not immediately unlink its own work).
func TestStoreGCKeepsJustWritten(t *testing.T) {
	st, err := snapshot.Open(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	s := captureOne(t, 0, 20)
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	if !st.Contains(s.FP) {
		t.Fatal("1-byte budget unlinked the snapshot being saved")
	}
}

// A file with a corrupt structural section degrades to a miss and is
// removed so a future save can repair it. Byte 100 sits in the CFG
// section (the first structural bytes after the 72-byte header), which
// every load path scans eagerly.
func TestStoreCorruptFileSelfHeals(t *testing.T) {
	dir := t.TempDir()
	st, err := snapshot.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := captureOne(t, 1, 21)
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fpName(s.FP))
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[100] ^= 0x40
	if err := os.WriteFile(path, buf, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(s.FP); err == nil || err == snapshot.ErrNotFound {
		t.Fatalf("corrupt load: got %v, want a decode error", err)
	}
	if st.Contains(s.FP) {
		t.Fatal("corrupt file survived the failed load; a save would dedupe against it forever")
	}
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(s.FP); err != nil {
		t.Fatalf("store did not heal: %v", err)
	}
}

// The arena half of the corruption contract, pinned from both sides: a
// bit flip in the R/T payload is *not* scanned for by the default
// aliasing load (that deferral is the sub-linear warm path — see the
// format comment), and *is* caught, with the usual self-heal, by a
// verify-arenas store and by the copying fallback path — which is every
// load on a copying (32-bit or big-endian) host, the default included.
func TestStoreArenaCorruptionVerifyModes(t *testing.T) {
	s := captureOne(t, 1, 21)
	corrupt := func(t *testing.T, dir string) {
		t.Helper()
		path := filepath.Join(dir, fpName(s.FP))
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		buf[len(buf)-8] ^= 0x40 // last T-section word: always in the arena payload
		if err := os.WriteFile(path, buf, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	save := func(t *testing.T, dir string) *snapshot.Store {
		t.Helper()
		st, err := snapshot.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Save(s); err != nil {
			t.Fatal(err)
		}
		corrupt(t, dir)
		return st
	}

	t.Run("default-alias-defers", func(t *testing.T) {
		st := save(t, t.TempDir())
		if !aliasingHost() {
			// Every load on a copying host verifies all five sections.
			if _, err := st.Load(s.FP); err == nil || err == snapshot.ErrNotFound {
				t.Fatalf("copying-host load: got %v, want a T-section checksum error", err)
			}
			if got := st.Stats(); got.SectionScans != 5 || got.SectionSkips != 0 {
				t.Fatalf("copying-host load accounting: %+v", got)
			}
			return
		}
		if _, err := st.Load(s.FP); err != nil {
			t.Fatalf("aliasing load scanned the arenas it defers: %v", err)
		}
		if got := st.Stats(); got.SectionScans != 3 || got.SectionSkips != 2 {
			t.Fatalf("aliasing load accounting: %+v", got)
		}
	})
	t.Run("verify-arenas-catches", func(t *testing.T) {
		st := save(t, t.TempDir())
		st.SetVerifyArenas(true)
		if _, err := st.Load(s.FP); err == nil || err == snapshot.ErrNotFound {
			t.Fatalf("verify-arenas load: got %v, want a T-section checksum error", err)
		}
		if st.Contains(s.FP) {
			t.Fatal("corrupt file survived the failed load")
		}
	})
	t.Run("copy-path-catches", func(t *testing.T) {
		st := save(t, t.TempDir())
		snapshot.SetForceReadFallback(true)
		snapshot.SetForceCopyDecode(true)
		_, err := st.Load(s.FP)
		snapshot.SetForceReadFallback(false)
		snapshot.SetForceCopyDecode(false)
		if err == nil || err == snapshot.ErrNotFound {
			t.Fatalf("copying load: got %v, want a T-section checksum error", err)
		}
	})
}

// aliasingHost reports whether decoded snapshots alias the mapped file
// on this host (64-bit little-endian). Elsewhere every load copies the
// payload and so verifies all five sections.
func aliasingHost() bool {
	return strconv.IntSize == 64 && binary.NativeEndian.Uint16([]byte{1, 0}) == 1
}

func fpName(fp uint64) string {
	const hexdigits = "0123456789abcdef"
	name := make([]byte, 16)
	for i := 15; i >= 0; i-- {
		name[i] = hexdigits[fp&0xf]
		fp >>= 4
	}
	return string(name) + ".flsnap"
}

// ladderFunc builds a fixed n-block function without generators: block i
// falls through to i+1 and, when (37i+11) mod n names another block than
// the entry or i+1, also branches there on the entry's parameter. The
// forward and backward jumps give a reproducible CFG with back edges and
// irreducible regions, and n > 64 gives the R/T rows several words.
func ladderFunc(n int) *ir.Func {
	f := ir.NewFunc(fmt.Sprintf("ladder%d", n))
	blocks := make([]*ir.Block, n)
	for i := range blocks {
		kind := ir.BlockIf
		switch t := (i*37 + 11) % n; {
		case i == n-1:
			kind = ir.BlockRet
		case t == 0 || t == i+1:
			kind = ir.BlockPlain
		}
		blocks[i] = f.NewBlock(kind)
	}
	p := blocks[0].NewValueI(ir.OpParam, 0)
	for i, b := range blocks[:n-1] {
		b.AddEdgeTo(blocks[i+1])
		if b.Kind == ir.BlockIf {
			b.AddEdgeTo(blocks[(i*37+11)%n])
			b.SetControl(p)
		}
	}
	return f
}

// captureLadder captures a checker for ladderFunc(n) under strategy st.
func captureLadder(t testing.TB, n int, st core.Strategy) *snapshot.Snapshot {
	t.Helper()
	p, err := backend.Prepare(ladderFunc(n))
	if err != nil {
		t.Fatal(err)
	}
	s, err := snapshot.Capture(p, backend.NewCheckerResult(p, core.Options{Strategy: st}).Checker())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The file format is pinned byte for byte: SHA-256 digests of the v3
// encoding of fixed functions, recorded when Encode still built the file
// in one buffer. The streaming encoder must reproduce them exactly —
// through Encode and through the file Store.Save writes — on every host:
// the 600-block case fills the portable encoder's staging chunk several
// times over on hosts that cannot write the arrays as byte views.
func TestEncodeGoldenDigest(t *testing.T) {
	for _, tc := range []struct {
		n      int
		st     core.Strategy
		size   int
		digest string
	}{
		{9, core.StrategyExact, 1480, "158b5bc94bfda4279fbb2b79397dcd3bb9b558eb569962b1d2d350ae3c7ec924"},
		{9, core.StrategyPropagate, 1480, "2ae89ca6811b52e48dec36706a397dfaef3d2b1da145b43764ca64cd41e4a3d6"},
		{150, core.StrategyExact, 30040, "517c6d1d4633501caeaa6188b1645aa52881d2dacacf00eca762e33fa7cf3418"},
		{150, core.StrategyPropagate, 30040, "d20490e1f571dbd9bd0e1450908da953f28822a1ee51705b4a7592e3524fef51"},
		{600, core.StrategyExact, 187288, "d30a3412fbe63d8df4b6e592b884e6f9b87c0de22b2e4bc2df1660711444769e"},
		{600, core.StrategyPropagate, 187288, "99fad88f4784b3ec1a01e1a013b9274d39fd8d63bda673bc379fe0915d066392"},
	} {
		s := captureLadder(t, tc.n, tc.st)
		buf, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(buf); len(buf) != tc.size || hex.EncodeToString(sum[:]) != tc.digest {
			t.Fatalf("ladder%d strategy %d: %d bytes, sha256 %x; want %d bytes, %s",
				tc.n, tc.st, len(buf), sum, tc.size, tc.digest)
		}
		if int64(len(buf)) != s.SizeBytes() {
			t.Fatalf("ladder%d: SizeBytes %d, encoding is %d bytes", tc.n, s.SizeBytes(), len(buf))
		}
		st, err := snapshot.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Save(s); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(filepath.Join(st.Dir(), fpName(s.FP)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, buf) {
			t.Fatalf("ladder%d strategy %d: saved file differs from Encode's bytes", tc.n, tc.st)
		}
	}
}

// WriteTo writes nothing for a snapshot whose arrays contradict its
// dimensions, and reports a failing writer's error.
func TestWriteToErrors(t *testing.T) {
	s := captureLadder(t, 150, core.StrategyExact)
	bad := *s
	bad.TWords = bad.TWords[1:]
	var buf bytes.Buffer
	if n, err := bad.WriteTo(&buf); err == nil || n != 0 || buf.Len() != 0 {
		t.Fatalf("inconsistent arenas: wrote %d bytes, err %v", n, err)
	}
	for _, limit := range []int{0, 71, 72, 100, 29000} {
		w := &failingWriter{limit: limit}
		n, err := s.WriteTo(w)
		if err != errWriteLimit || n != int64(limit) {
			t.Fatalf("writer failing at %d bytes: WriteTo returned %d, %v", limit, n, err)
		}
	}
}

var errWriteLimit = errors.New("write limit reached")

// failingWriter accepts limit bytes, then fails.
type failingWriter struct{ limit, n int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.n+len(p) <= w.limit {
		w.n += len(p)
		return len(p), nil
	}
	k := w.limit - w.n
	w.n = w.limit
	return k, errWriteLimit
}

// Save streams the file from the snapshot's own arrays: one Save of a
// snapshot with over 1 MiB of arenas allocates a small fraction of the
// file's size, where building the file in memory first would allocate
// all of it.
func TestStoreSaveStreams(t *testing.T) {
	s := captureLadder(t, 2100, core.StrategyPropagate)
	if arenas := 8 * (len(s.RWords) + len(s.TWords)); arenas < 1<<20 {
		t.Fatalf("arenas hold %d bytes, want at least 1 MiB", arenas)
	}
	st, err := snapshot.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err = st.Save(s)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	size := s.SizeBytes()
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= uint64(size/8) {
		t.Fatalf("Save of a %d-byte snapshot allocated %d bytes, want < %d", size, alloc, size/8)
	}
	want, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join(st.Dir(), fpName(s.FP)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, want) {
		t.Fatal("saved file differs from Encode's bytes")
	}
}
