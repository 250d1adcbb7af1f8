package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"wsan/internal/obs"
)

// reopen closes nothing (a crash closes nothing) and opens a fresh durable
// store over the same root — the daemon-restart primitive every recovery
// test uses.
func reopen(t *testing.T, dir string, mets obs.Sink) *Store {
	t.Helper()
	return mustOpen(t, Config{Dir: dir, Metrics: mets})
}

func TestDiskSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d := reopen(t, dir, nil)
	parts := map[string][]byte{"schedule.json": []byte(`{"slots":8}`), "summary.json": []byte(`{"n":1}`)}
	if _, err := d.Put(testID(0), "schedule", parts); err != nil {
		t.Fatal(err)
	}
	wantBytes := d.Bytes()

	d = reopen(t, dir, nil)
	a, ok := d.Get(testID(0))
	if !ok {
		t.Fatal("artifact lost across reopen")
	}
	for name, want := range parts {
		if !bytes.Equal(a.Part(name), want) {
			t.Fatalf("part %s differs after reopen", name)
		}
	}
	if a.Kind != "schedule" || d.Len() != 1 || d.Bytes() != wantBytes {
		t.Fatalf("metadata drifted: kind=%s len=%d bytes=%d", a.Kind, d.Len(), d.Bytes())
	}
}

func TestDiskWarmScanQuarantinesTampering(t *testing.T) {
	cases := []struct {
		name   string
		tamper func(t *testing.T, artDir string)
	}{
		{"truncated part", func(t *testing.T, artDir string) {
			path := filepath.Join(artDir, "p.json")
			data, _ := os.ReadFile(path)
			if err := os.WriteFile(path, data[:len(data)-2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"corrupt part byte", func(t *testing.T, artDir string) {
			path := filepath.Join(artDir, "p.json")
			data, _ := os.ReadFile(path)
			data[0] ^= 0xff
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing part", func(t *testing.T, artDir string) {
			if err := os.Remove(filepath.Join(artDir, "p.json")); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing manifest", func(t *testing.T, artDir string) {
			if err := os.Remove(filepath.Join(artDir, manifestName)); err != nil {
				t.Fatal(err)
			}
		}},
		{"corrupt manifest", func(t *testing.T, artDir string) {
			if err := os.WriteFile(filepath.Join(artDir, manifestName), []byte(`{not json`), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			reg := obs.NewRegistry()
			d := reopen(t, dir, reg)
			if _, err := d.Put(testID(0), "schedule", map[string][]byte{"p.json": []byte(`{"v":12345}`)}); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Put(testID(1), "schedule", map[string][]byte{"p.json": []byte(`{"v":2}`)}); err != nil {
				t.Fatal(err)
			}
			tc.tamper(t, d.disk.artifactDir(testID(0)))

			d = reopen(t, dir, reg)
			if _, ok := d.Get(testID(0)); ok {
				t.Fatal("tampered artifact must never be served")
			}
			if _, ok := d.Get(testID(1)); !ok {
				t.Fatal("intact artifact must survive the scan")
			}
			if d.Len() != 1 {
				t.Fatalf("Len = %d, want 1", d.Len())
			}
			if got := reg.CounterValue("server.cache.quarantined"); got != 1 {
				t.Fatalf("quarantined counter = %d, want 1", got)
			}
			if d.Quarantined() != 1 {
				t.Fatalf("quarantine directory holds %d entries, want 1", d.Quarantined())
			}
		})
	}
}

func TestDiskReadTimeQuarantine(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	// A one-byte residency budget sends every read to disk.
	d := mustOpen(t, Config{Dir: dir, MemBytes: 1, Metrics: reg})
	if _, err := d.Put(testID(0), "schedule", map[string][]byte{"p.json": []byte(`{"v":1}`)}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the part after the warm-scan already blessed it.
	path := filepath.Join(d.disk.artifactDir(testID(0)), "p.json")
	if err := os.WriteFile(path, []byte(`{"v":9}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(testID(0)); ok {
		t.Fatal("artifact corrupted after scan must not be served")
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d after read-time quarantine, want 0", d.Len())
	}
	if got := reg.CounterValue("server.cache.quarantined"); got != 1 {
		t.Fatalf("quarantined counter = %d, want 1", got)
	}
}

func TestDiskPutFailureLeavesNoArtifact(t *testing.T) {
	for _, point := range []string{"sync", "rename"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			d := reopen(t, dir, nil)
			boom := fmt.Errorf("injected %s failure", point)
			if point == "sync" {
				d.disk.failSync = func(string) error { return boom }
			} else {
				d.disk.failRename = func(string, string) error { return boom }
			}
			if _, err := d.Put(testID(0), "schedule", map[string][]byte{"p.json": []byte(`{}`)}); err == nil {
				t.Fatal("Put should surface the injected failure")
			}
			if _, ok := d.Get(testID(0)); ok {
				t.Fatal("failed Put must leave no visible artifact")
			}
			// The graceful error path also cleans its staging.
			debris, err := os.ReadDir(d.disk.tmpDir())
			if err != nil {
				t.Fatal(err)
			}
			if len(debris) != 0 {
				t.Fatalf("staging holds %d entries after failed Put", len(debris))
			}
			// And the store keeps working once the fault clears.
			d.disk.failSync, d.disk.failRename = nil, nil
			if _, err := d.Put(testID(0), "schedule", map[string][]byte{"p.json": []byte(`{}`)}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDiskCrashRecoveryProperty is the kill-mid-write property test: Puts
// are interrupted at injected fsync/rename points by a panic (simulating
// the process dying with staging debris on disk and, for rename, the write
// lock never released — the instance is abandoned exactly as a crash would
// leave it). Invariant across every seed and crash point: a warm-scan
// after the crash serves every artifact whose Put returned success,
// byte-identically, and never serves — or counts as quarantined — a
// partial artifact, because crash-during-write leaves debris only in the
// invisible staging area.
func TestDiskCrashRecoveryProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			d := reopen(t, dir, nil)
			expected := map[string]map[string][]byte{}

			crash := func(put func()) {
				defer func() {
					if recover() == nil {
						t.Fatal("expected the injected crash to fire")
					}
				}()
				put()
			}

			const ops = 40
			for i := 0; i < ops; i++ {
				id := testID(i)
				parts := map[string][]byte{}
				for p := 0; p < 1+rng.Intn(3); p++ {
					buf := make([]byte, 16+rng.Intn(64))
					rng.Read(buf)
					parts[fmt.Sprintf("part%d.json", p)] = buf
				}
				switch rng.Intn(4) {
				case 0: // crash during a part/manifest fsync
					nth, calls := rng.Intn(len(parts)+1), 0
					d.disk.failSync = func(string) error {
						if calls == nth {
							panic("crash at fsync")
						}
						calls++
						return nil
					}
					crash(func() { _, _ = d.Put(id, "schedule", parts) })
					// The instance may hold a poisoned lock — abandon it
					// and recover, as a restart would.
					d = reopen(t, dir, nil)
				case 1: // crash at the publishing rename
					d.disk.failRename = func(string, string) error { panic("crash at rename") }
					crash(func() { _, _ = d.Put(id, "schedule", parts) })
					d = reopen(t, dir, nil)
				default: // clean write
					if _, err := d.Put(id, "schedule", parts); err != nil {
						t.Fatal(err)
					}
					expected[id] = parts
				}
				if rng.Intn(8) == 0 {
					d = reopen(t, dir, nil)
				}
			}

			reg := obs.NewRegistry()
			d = reopen(t, dir, reg)
			if d.Len() != len(expected) {
				t.Fatalf("recovered %d artifacts, want %d", d.Len(), len(expected))
			}
			for id, parts := range expected {
				a, ok := d.Get(id)
				if !ok {
					t.Fatalf("committed artifact %s lost", id)
				}
				for name, want := range parts {
					if !bytes.Equal(a.Part(name), want) {
						t.Fatalf("artifact %s part %s differs after recovery", id, name)
					}
				}
			}
			for i := 0; i < ops; i++ {
				if _, ok := expected[testID(i)]; ok {
					continue
				}
				if _, found := d.Get(testID(i)); found {
					t.Fatalf("crashed Put of %s became visible", testID(i))
				}
			}
			// Crashes land in staging, never in objects/: nothing to
			// quarantine.
			if got := reg.CounterValue("server.cache.quarantined"); got != 0 {
				t.Fatalf("recovery quarantined %d entries, want 0", got)
			}
		})
	}
}

func TestDiskRejectsBadNames(t *testing.T) {
	d := reopen(t, t.TempDir(), nil)
	defer d.Close()
	if _, err := d.Put("../escape", "schedule", map[string][]byte{"p.json": nil}); err == nil {
		t.Fatal("non-hex artifact ID must be rejected")
	}
	for _, part := range []string{"", ".", "..", "a/b.json", `a\b`, manifestName} {
		if _, err := d.Put(testID(0), "schedule", map[string][]byte{part: []byte(`{}`)}); err == nil {
			t.Fatalf("part name %q must be rejected", part)
		}
	}
	if d.Len() != 0 {
		t.Fatal("rejected puts must store nothing")
	}
}
