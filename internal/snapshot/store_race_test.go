package snapshot_test

// Concurrency battery for the store: Save, Load, GC and the stats
// methods racing across goroutines and across two Store handles sharing
// one directory (the cross-process simulation). Run under -race; the
// assertions are that nothing panics, no load ever returns a wrong
// snapshot, and errors are limited to the benign not-found kind.

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fastliveness/internal/faults"
	"fastliveness/internal/snapshot"
)

func TestStoreConcurrentSaveLoadGC(t *testing.T) {
	dir := t.TempDir()
	const n = 12
	snaps := make([]*snapshot.Snapshot, n)
	var total int64
	for i := range snaps {
		snaps[i] = captureOne(t, i, 29)
		total += snaps[i].SizeBytes()
	}
	// A budget around a third of the corpus forces GC on most saves.
	st, err := snapshot.Open(dir, total/3)
	if err != nil {
		t.Fatal(err)
	}
	// A second handle on the same directory: saves and GCs race across
	// handles exactly like across processes.
	st2, err := snapshot.Open(dir, total/3)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			store := st
			if g%2 == 1 {
				store = st2
			}
			for i := 0; i < 60; i++ {
				s := snaps[(g*7+i)%n]
				if err := store.Save(s); err != nil {
					t.Errorf("save %016x: %v", s.FP, err)
					return
				}
				got, err := store.Load(snaps[(g+i)%n].FP)
				switch {
				case errors.Is(err, snapshot.ErrNotFound):
					// GC'd by a racing saver — the normal miss.
				case err != nil:
					t.Errorf("load: %v", err)
					return
				case got.FP != snaps[(g+i)%n].FP:
					t.Errorf("load returned fingerprint %016x, want %016x", got.FP, snaps[(g+i)%n].FP)
					return
				}
				_ = store.SizeBytes()
				_ = store.Len()
			}
		}(g)
	}
	wg.Wait()
}

// Concurrent loads with an armed injector: injected failures must surface
// like real disk errors without corrupting the cache — a later clean load
// of the same fingerprint still validates.
func TestStoreConcurrentLoadsWithInjectedFaults(t *testing.T) {
	st, err := snapshot.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	snaps := make([]*snapshot.Snapshot, n)
	for i := range snaps {
		snaps[i] = captureOne(t, i, 31)
		if err := st.Save(snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	in := faults.New(17)
	in.Add(faults.Rule{Site: snapshot.FaultSiteLoad, Action: faults.ActionError, P: 0.5})
	st.SetFaultInjector(in)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := snaps[(g+i)%n]
				got, err := st.Load(s.FP)
				var ie *faults.InjectedError
				switch {
				case errors.As(err, &ie):
					// Expected injected failure.
				case err != nil:
					t.Errorf("load: %v", err)
					return
				case got.FP != s.FP:
					t.Errorf("load returned fingerprint %016x, want %016x", got.FP, s.FP)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st.SetFaultInjector(nil)
	for _, s := range snaps {
		got, err := st.Load(s.FP)
		if err != nil || got.FP != s.FP {
			t.Fatalf("clean load of %016x after the fault storm: %v", s.FP, err)
		}
	}
}

// Loads of one fingerprint racing past the decoded cache each map the
// file, but only the winner's snapshot is cached and handed out; every
// loser must release its mapping, leaving one per fingerprint in the
// process. A delay at the load fault site holds all loaders between the
// cache check and the map, and /proc/self/maps counts the survivors.
func TestStoreRacingLoadsKeepOneMapping(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts mappings through /proc/self/maps")
	}
	if strconv.IntSize != 64 || binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		t.Skip("decoded snapshots alias their mapping only on 64-bit little-endian hosts")
	}
	dir := t.TempDir()
	st, err := snapshot.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := captureOne(t, 3, 37)
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) != 1 {
		t.Fatalf("store directory holds %v (%v), want one snapshot file", files, err)
	}
	in := faults.New(19)
	in.Add(faults.Rule{Site: snapshot.FaultSiteLoad, Action: faults.ActionDelay, Delay: 100 * time.Millisecond})
	st.SetFaultInjector(in)
	defer st.SetFaultInjector(nil)

	const loaders = 8
	start := make(chan struct{})
	got := make([]*snapshot.Snapshot, loaders)
	var wg sync.WaitGroup
	for g := 0; g < loaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			var err error
			got[g], err = st.Load(s.FP)
			if err != nil {
				t.Errorf("load: %v", err)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for _, g := range got[1:] {
		if g != got[0] {
			t.Fatal("racing loads handed out different snapshots")
		}
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(maps), files[0]+"\n"); n != 1 {
		t.Fatalf("%d live mappings of the snapshot file after %d racing loads, want 1", n, loaders)
	}
}
