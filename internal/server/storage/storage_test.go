package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"wsan/internal/obs"
)

// testID derives a deterministic fake content address (valid hex).
func testID(n int) string { return fmt.Sprintf("%064x", n+1) }

// backends enumerates the store configurations under test with a fresh
// instance per call.
func backends(t *testing.T) map[string]func(t *testing.T) *Store {
	t.Helper()
	return map[string]func(t *testing.T) *Store{
		// memory-only: every artifact resident, nothing on disk.
		"memory": func(t *testing.T) *Store { return mustOpen(t, Config{}) },
		// durable: written through to disk, resident within the default
		// budget.
		"disk": func(t *testing.T) *Store { return mustOpen(t, Config{Dir: t.TempDir()}) },
		// durable with a one-byte residency budget: every read is served
		// from disk.
		"tiered": func(t *testing.T) *Store { return mustOpen(t, Config{Dir: t.TempDir(), MemBytes: 1}) },
		// memory-only under a byte budget it never reaches.
		"evicting": func(t *testing.T) *Store { return mustOpen(t, Config{MaxBytes: 1 << 30}) },
	}
}

// mustOpen opens a store or fails the test.
func mustOpen(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreConformance(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			defer s.Close()

			if _, ok := s.Lookup(testID(0)); ok {
				t.Fatal("empty store should miss")
			}
			parts := map[string][]byte{"a.json": []byte(`{"x":1}`), "b.json": []byte(`[2]`)}
			a, err := s.Put(testID(0), "schedule", parts)
			if err != nil {
				t.Fatal(err)
			}
			if a.ID != testID(0) || a.Kind != "schedule" {
				t.Fatalf("artifact identity: %+v", a)
			}
			if got := a.Bytes(); got != int64(len(parts["a.json"])+len(parts["b.json"])) {
				t.Fatalf("artifact bytes = %d", got)
			}
			got, ok := s.Get(testID(0))
			if !ok {
				t.Fatal("stored artifact should be readable")
			}
			if !bytes.Equal(got.Part("a.json"), parts["a.json"]) || !bytes.Equal(got.Part("b.json"), parts["b.json"]) {
				t.Fatal("part bytes differ after round trip")
			}
			if names := got.PartNames(); len(names) != 2 || names[0] != "a.json" || names[1] != "b.json" {
				t.Fatalf("part names = %v", names)
			}
			if got.Part("missing.json") != nil {
				t.Fatal("absent part should be nil")
			}
			if s.Len() != 1 {
				t.Fatalf("Len = %d, want 1", s.Len())
			}
			if s.Bytes() != a.Bytes() {
				t.Fatalf("Bytes = %d, want %d", s.Bytes(), a.Bytes())
			}

			// Double put keeps the first copy.
			again, err := s.Put(testID(0), "schedule", map[string][]byte{"a.json": []byte(`other`)})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Part("a.json"), parts["a.json"]) {
				t.Fatal("duplicate put must keep the first artifact's bytes")
			}
			if s.Len() != 1 || s.Bytes() != a.Bytes() {
				t.Fatalf("after dup put: len=%d bytes=%d", s.Len(), s.Bytes())
			}

			if !s.Delete(testID(0)) {
				t.Fatal("delete of present artifact should report true")
			}
			if s.Delete(testID(0)) {
				t.Fatal("delete of absent artifact should report false")
			}
			if _, ok := s.Get(testID(0)); ok {
				t.Fatal("deleted artifact should miss")
			}
			if s.Len() != 0 || s.Bytes() != 0 {
				t.Fatalf("after delete: len=%d bytes=%d", s.Len(), s.Bytes())
			}
		})
	}
}

func TestStoreListCursor(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			defer s.Close()
			const n = 6
			for i := 0; i < n; i++ {
				if _, err := s.Put(testID(i), "schedule", map[string][]byte{"p.json": []byte(`{}`)}); err != nil {
					t.Fatal(err)
				}
			}
			// Full listing, no cursor.
			all, next := s.List("", 0)
			if len(all) != n || next != "" {
				t.Fatalf("full list: %d items, next %q", len(all), next)
			}
			for i := 1; i < len(all); i++ {
				if all[i-1].ID >= all[i].ID {
					t.Fatal("listing must be ID-sorted")
				}
			}
			// Page through with limit 2.
			var pages [][]Info
			cursor := ""
			for {
				page, nx := s.List(cursor, 2)
				if len(page) == 0 {
					break
				}
				pages = append(pages, page)
				if nx == "" {
					break
				}
				cursor = nx
			}
			if len(pages) != 3 {
				t.Fatalf("expected 3 pages, got %d", len(pages))
			}
			// Exact-boundary page: the next cursor of the final page is "".
			last, nx := s.List(pages[1][1].ID, 2)
			if len(last) != 2 || nx != "" {
				t.Fatalf("final page: %d items, next %q", len(last), nx)
			}
		})
	}
}

// TestStoreListCursorSurvivesEviction is the regression test for the
// strictly-greater resume contract: an ?after= cursor naming an artifact
// deleted (or evicted) between pages must resume at the right position
// instead of erroring or restarting.
func TestStoreListCursorSurvivesEviction(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			defer s.Close()
			for i := 0; i < 6; i++ {
				if _, err := s.Put(testID(i), "schedule", map[string][]byte{"p.json": []byte(`{}`)}); err != nil {
					t.Fatal(err)
				}
			}
			page1, cursor := s.List("", 3)
			if len(page1) != 3 || cursor != page1[2].ID {
				t.Fatalf("page1: %d items, cursor %q", len(page1), cursor)
			}
			// The cursor artifact is evicted between page fetches.
			if !s.Delete(cursor) {
				t.Fatal("cursor artifact should exist")
			}
			page2, next := s.List(cursor, 3)
			if len(page2) != 3 || next != "" {
				t.Fatalf("page2 after evicted cursor: %d items, next %q", len(page2), next)
			}
			if page2[0].ID != testID(3) {
				t.Fatalf("resume position: got %s, want %s", page2[0].ID, testID(3))
			}
			// Union of both pages covers everything except the evicted one,
			// with no duplicates.
			seen := map[string]bool{}
			for _, info := range append(append([]Info{}, page1...), page2...) {
				if seen[info.ID] {
					t.Fatalf("duplicate %s across pages", info.ID)
				}
				seen[info.ID] = true
			}
			if len(seen) != 6 {
				t.Fatalf("pages cover %d artifacts, want 6", len(seen))
			}
		})
	}
}

// TestPutInputAliasing pins the Put half of the aliasing rule: every
// backend deep-copies, so a caller mutating the buffers it passed in never
// corrupts stored data.
func TestPutInputAliasing(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			defer s.Close()
			buf := []byte(`{"v":1}`)
			parts := map[string][]byte{"p.json": buf}
			if _, err := s.Put(testID(0), "schedule", parts); err != nil {
				t.Fatal(err)
			}
			buf[5] = '9'
			parts["other.json"] = []byte(`x`)
			a, ok := s.Get(testID(0))
			if !ok {
				t.Fatal("artifact missing")
			}
			if !bytes.Equal(a.Part("p.json"), []byte(`{"v":1}`)) {
				t.Fatalf("stored part aliased the caller's buffer: %q", a.Part("p.json"))
			}
			if a.Part("other.json") != nil {
				t.Fatal("stored part map aliased the caller's map")
			}
		})
	}
}

// TestDiskPartCopies pins the Get half for disk reads: each read fills
// fresh buffers, so mutating one returned part never leaks into another
// read (the HTTP boundary serves these slices).
func TestDiskPartCopies(t *testing.T) {
	d := mustOpen(t, Config{Dir: t.TempDir(), MemBytes: 1})
	defer d.Close()
	if _, err := d.Put(testID(0), "schedule", map[string][]byte{"p.json": []byte(`{"v":1}`)}); err != nil {
		t.Fatal(err)
	}
	first, ok := d.Get(testID(0))
	if !ok {
		t.Fatal("artifact missing")
	}
	first.Part("p.json")[0] = 'X'
	second, ok := d.Get(testID(0))
	if !ok {
		t.Fatal("artifact missing on re-read (mutated copy must not trigger quarantine)")
	}
	if !bytes.Equal(second.Part("p.json"), []byte(`{"v":1}`)) {
		t.Fatal("disk Get returned a shared slice across calls")
	}
}

// TestMemoryPartSharing documents the read side of the rule for resident
// artifacts: Part returns the resident slice (no copy), which is why
// callers must treat it as read-only.
func TestMemoryPartSharing(t *testing.T) {
	m := mustOpen(t, Config{})
	a, err := m.Put(testID(0), "schedule", map[string][]byte{"p.json": []byte(`{"v":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := m.Get(testID(0))
	if &a.Part("p.json")[0] != &b.Part("p.json")[0] {
		t.Fatal("a resident artifact is expected to share its slice across Gets")
	}
}

func TestLookupCounters(t *testing.T) {
	reg := obs.NewRegistry()
	m := mustOpen(t, Config{Metrics: reg})
	if _, ok := m.Lookup(testID(0)); ok {
		t.Fatal("empty store should miss")
	}
	if _, err := m.Put(testID(0), "schedule", map[string][]byte{"p.json": []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Lookup(testID(0)); !ok {
		t.Fatal("stored key should hit")
	}
	if got := reg.CounterValue("server.cache.hits"); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := reg.CounterValue("server.cache.misses"); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := reg.CounterValue("server.cache.stored"); got != 1 {
		t.Errorf("stored = %d, want 1", got)
	}
	// Get must not touch the probe counters.
	if _, ok := m.Get(testID(0)); !ok {
		t.Fatal("Get should find the artifact")
	}
	if got := reg.CounterValue("server.cache.hits"); got != 1 {
		t.Errorf("hits after Get = %d, want 1", got)
	}
	// Duplicate put counts dup_writes, not stored.
	if _, err := m.Put(testID(0), "schedule", map[string][]byte{"p.json": []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue("server.cache.dup_writes"); got != 1 {
		t.Errorf("dup_writes = %d, want 1", got)
	}
	if got := reg.CounterValue("server.cache.stored"); got != 1 {
		t.Errorf("stored after dup = %d, want 1", got)
	}
}

// residentBytes reads the store's resident payload and checks it against
// the entries: resident entries must form a prefix of the recency list
// ending at cold, and the counters must equal the sums over the entries.
func residentBytes(t *testing.T, s *Store) int64 {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var size, resident int64
	var last *entry
	onDiskOnly := false
	for elem := s.lru.Front(); elem != nil; elem = elem.Next() {
		e := elem.Value.(*entry)
		if s.idx[e.ID] != e {
			t.Fatalf("list entry %s is not the indexed one", e.ID)
		}
		size += e.Bytes
		if e.art == nil {
			onDiskOnly = true
			continue
		}
		if onDiskOnly {
			t.Fatalf("resident entry %s sits behind a disk-only one", e.ID)
		}
		resident += e.Bytes
		last = e
	}
	if s.lru.Len() != len(s.idx) || size != s.size || resident != s.resident || last != s.cold {
		t.Fatalf("index drift: list %d/map %d, size %d/%d, resident %d/%d, cold ok=%v",
			s.lru.Len(), len(s.idx), size, s.size, resident, s.resident, last == s.cold)
	}
	return resident
}

// TestDurableResidency pins how a durable store moves artifacts between
// memory and disk: a read of a warm-scanned artifact makes it resident, a
// Put is written through, a Delete leaves both, and trimming residency is
// not an eviction — the next Get serves identical bytes from disk.
func TestDurableResidency(t *testing.T) {
	dir := t.TempDir()
	p0 := map[string][]byte{"p.json": []byte(`{"v":1}`)}
	s := mustOpen(t, Config{Dir: dir})
	if _, err := s.Put(testID(0), "schedule", p0); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Reopen: the warm-scanned artifact is indexed on disk only.
	s = mustOpen(t, Config{Dir: dir})
	if s.Len() != 1 || residentBytes(t, s) != 0 {
		t.Fatalf("warm-scan: len=%d resident=%d, want 1/0", s.Len(), residentBytes(t, s))
	}
	a, ok := s.Get(testID(0))
	if !ok || !bytes.Equal(a.Part("p.json"), p0["p.json"]) {
		t.Fatal("read of a warm-scanned artifact failed")
	}
	if residentBytes(t, s) != a.Bytes() {
		t.Fatal("a read miss should make the artifact resident")
	}
	// Write-through: a fresh put is resident and on disk.
	if _, err := s.Put(testID(1), "schedule", map[string][]byte{"q.json": []byte(`2`)}); err != nil {
		t.Fatal(err)
	}
	if residentBytes(t, s) != s.Bytes() {
		t.Fatalf("put should be resident: resident=%d bytes=%d", residentBytes(t, s), s.Bytes())
	}
	if _, err := os.Stat(filepath.Join(s.disk.artifactDir(testID(1)), "q.json")); err != nil {
		t.Fatalf("put was not written through: %v", err)
	}
	// Delete leaves memory and disk.
	if !s.Delete(testID(0)) {
		t.Fatal("delete failed")
	}
	if _, err := os.Stat(s.disk.artifactDir(testID(0))); !os.IsNotExist(err) {
		t.Fatalf("deleted artifact still on disk: %v", err)
	}
	if s.Len() != 1 || residentBytes(t, s) != 1 {
		t.Fatalf("delete left len=%d resident=%d", s.Len(), residentBytes(t, s))
	}
	s.Close()

	// A residency budget of one artifact: the second put trims the first.
	reg := obs.NewRegistry()
	var evs []Eviction
	s = mustOpen(t, Config{Dir: t.TempDir(), MemBytes: 10, Metrics: reg, OnEvict: func(ev Eviction) { evs = append(evs, ev) }})
	defer s.Close()
	pa := map[string][]byte{"a.json": []byte(`{"a":123}`)}
	pb := map[string][]byte{"b.json": []byte(`{"b":456}`)}
	if _, err := s.Put(testID(2), "schedule", pa); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(testID(3), "schedule", pb); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || residentBytes(t, s) != 9 || s.idx[testID(2)].art != nil {
		t.Fatalf("trim: len=%d resident=%d, want the older artifact on disk only", s.Len(), residentBytes(t, s))
	}
	if len(evs) != 0 || reg.CounterValue("server.cache.evictions") != 0 {
		t.Fatalf("trimming residency reported evictions: %v, counter %d", evs, reg.CounterValue("server.cache.evictions"))
	}
	a, ok = s.Get(testID(2))
	if !ok || !bytes.Equal(a.Part("a.json"), pa["a.json"]) {
		t.Fatal("trimmed artifact not served byte-identically from disk")
	}
	if s.idx[testID(2)].art == nil || s.idx[testID(3)].art != nil || residentBytes(t, s) != 9 {
		t.Fatal("the read should swap residency to the artifact just read")
	}
}

// TestPutDeleteRaceLeavesNoGhost races a Put against a Delete of the same
// ID, the Delete retrying until the Put has landed or returned. Whatever
// the interleaving, the index must agree with List afterwards: no artifact
// counted in Len or Bytes that List and Get no longer have.
func TestPutDeleteRaceLeavesNoGhost(t *testing.T) {
	configs := map[string]func(t *testing.T) Config{
		"memory":  func(t *testing.T) Config { return Config{} },
		"durable": func(t *testing.T) Config { return Config{Dir: t.TempDir(), NoSync: true} },
	}
	for name, mkConfig := range configs {
		t.Run(name, func(t *testing.T) {
			s := mustOpen(t, mkConfig(t))
			defer s.Close()
			for round := 0; round < 2000; round++ {
				id := testID(round % 4)
				var putDone atomic.Bool
				var wg sync.WaitGroup
				wg.Add(2)
				go func() {
					defer wg.Done()
					_, _ = s.Put(id, "schedule", map[string][]byte{"p.json": []byte(`{}`)})
					putDone.Store(true)
				}()
				go func() {
					defer wg.Done()
					for !s.Delete(id) && !putDone.Load() {
					}
				}()
				wg.Wait()
				infos, _ := s.List("", 0)
				n, size := s.Len(), s.Bytes()
				_, got := s.Get(id)
				if n != len(infos) || size != int64(2*len(infos)) || got != (len(infos) == 1) {
					t.Fatalf("round %d: Len=%d Bytes=%d, List has %d, Get found=%v",
						round, n, size, len(infos), got)
				}
				s.Delete(id)
			}
		})
	}
}
