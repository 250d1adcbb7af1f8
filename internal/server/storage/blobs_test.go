package storage

import (
	"bytes"
	"errors"
	"testing"
)

// blobCount checks the blob invariant and returns the table's size.
func blobCount(t *testing.T, s *Store) int {
	t.Helper()
	residentBytes(t, s)
	return s.Blobs()
}

// TestPutFailureReleasesBlobs drives every way a Put or a disk read can
// end without indexing its parts and checks that none leaves a blob
// reference behind. Each failing Put shares one part with a resident
// artifact, so it holds a reference while it stages.
func TestPutFailureReleasesBlobs(t *testing.T) {
	shared := []byte(`{"survey":1}`)
	base := map[string][]byte{"survey.json": shared}
	next := func() map[string][]byte {
		return map[string][]byte{"survey.json": bytes.Clone(shared), "p.json": []byte(`{"n":2}`)}
	}
	// open returns a durable store holding the base artifact: one blob.
	open := func(t *testing.T) *Store {
		s := mustOpen(t, Config{Dir: t.TempDir(), NoSync: true})
		if _, err := s.Put(testID(0), "schedule", base); err != nil {
			t.Fatal(err)
		}
		return s
	}
	boom := errors.New("injected failure")

	t.Run("failSync", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		s.disk.failSync = func(string) error { return boom }
		if _, err := s.Put(testID(1), "schedule", next()); err == nil {
			t.Fatal("put should fail")
		}
		if n := blobCount(t, s); n != 1 {
			t.Fatalf("%d blobs, want the base artifact's 1", n)
		}
	})
	t.Run("failRename", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		s.disk.failRename = func(string, string) error { return boom }
		if _, err := s.Put(testID(1), "schedule", next()); err == nil {
			t.Fatal("put should fail")
		}
		if n := blobCount(t, s); n != 1 {
			t.Fatalf("%d blobs, want the base artifact's 1", n)
		}
	})
	t.Run("closed", func(t *testing.T) {
		s := open(t)
		// The store closes while the Put stages.
		s.disk.failSync = func(string) error {
			s.disk.failSync = nil
			return s.Close()
		}
		if _, err := s.Put(testID(1), "schedule", next()); err == nil {
			t.Fatal("put on a store closed mid-staging should fail")
		}
		if _, err := s.Put(testID(2), "schedule", next()); err == nil {
			t.Fatal("put on a closed store should fail")
		}
		if n := blobCount(t, s); n != 0 {
			t.Fatalf("%d blobs left after Close", n)
		}
	})
	t.Run("racing duplicate", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		// A second Put of the same ID lands while the first stages.
		var first *Artifact
		s.disk.failSync = func(string) error {
			s.disk.failSync = nil
			var err error
			first, err = s.Put(testID(1), "schedule", map[string][]byte{"survey.json": bytes.Clone(shared), "q.json": []byte(`{"q":1}`)})
			return err
		}
		got, err := s.Put(testID(1), "schedule", next())
		if err != nil || got != first {
			t.Fatalf("the losing Put should return the winner's artifact (err %v)", err)
		}
		if n := blobCount(t, s); n != 2 {
			t.Fatalf("%d blobs, want the shared survey and the winner's q.json", n)
		}
	})
	t.Run("lost disk read", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpen(t, Config{Dir: dir, NoSync: true})
		if _, err := s.Put(testID(1), "schedule", next()); err != nil {
			t.Fatal(err)
		}
		s.Close()
		// Reopened, the artifact is on disk only. A second read wins the
		// race while the first one's buffers are loaded.
		s = mustOpen(t, Config{Dir: dir, NoSync: true})
		defer s.Close()
		var winner *Artifact
		s.disk.afterRead = func(id string) {
			s.disk.afterRead = nil
			winner, _ = s.Get(id)
		}
		loser, ok := s.Get(testID(1))
		if !ok || winner == nil || loser != winner {
			t.Fatal("both reads should return the winner's artifact")
		}
		if n := blobCount(t, s); n != 2 {
			t.Fatalf("%d blobs, want the winner's 2", n)
		}
	})
}

// FuzzStoreOps decodes its input into a sequence of Put, Get, Delete and
// residency-trim operations over a few IDs, with part contents from a
// small pool so that artifacts share parts often. It runs the sequence on
// a memory store and on a durable store with a tiny MemBytes, and checks
// every answer against a plain map model and the blob invariant after
// every operation.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{0, 1, 0xff, 0, 2, 0x1b, 1, 1, 2, 1, 3, 0, 1, 1})
	f.Add([]byte{0, 0, 0x05, 0, 1, 0x05, 0, 2, 0x05, 3, 0, 1, 0, 2, 1, 1, 2, 0, 1, 0})
	f.Add([]byte{0, 3, 0x3f, 3, 1, 0, 3, 0, 1, 3, 1, 3, 0, 3, 0x3f})
	pool := [][]byte{{}, []byte(`{}`), []byte(`{"survey":[1,2,3]}`), bytes.Repeat([]byte{'z'}, 40)}
	names := []string{"survey.json", "schedule.json", "workload.json"}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 300 {
			ops = ops[:300]
		}
		for _, cfg := range []Config{{}, {Dir: t.TempDir(), NoSync: true, MemBytes: 48}} {
			s := mustOpen(t, cfg)
			model := make(map[string]map[string][]byte)
			for i := 0; i+2 < len(ops); i += 3 {
				id, arg := testID(int(ops[i+1]%6)), ops[i+2]
				switch ops[i] % 4 {
				case 0: // put: arg's low bits pick the parts, its high bits rotate the contents
					parts := make(map[string][]byte)
					for j, name := range names {
						if arg&(1<<j) != 0 {
							parts[name] = bytes.Clone(pool[(j+int(arg>>3))%len(pool)])
						}
					}
					if _, err := s.Put(id, "schedule", parts); err != nil {
						t.Fatalf("op %d: put: %v", i/3, err)
					}
					if _, ok := model[id]; !ok { // a duplicate Put keeps the first
						kept := make(map[string][]byte, len(parts))
						for name, p := range parts {
							kept[name] = bytes.Clone(p)
						}
						model[id] = kept
					}
					for _, p := range parts { // the store must not hold the caller's buffers
						for k := range p {
							p[k] ^= 0xff
						}
					}
				case 1: // get
					a, ok := s.Get(id)
					want, inModel := model[id]
					if ok != inModel {
						t.Fatalf("op %d: get %s hit=%v, model %v", i/3, id, ok, inModel)
					}
					if ok {
						if got := a.PartNames(); len(got) != len(want) {
							t.Fatalf("op %d: get %s: parts %v, model has %d", i/3, id, got, len(want))
						}
						for name, p := range want {
							if !bytes.Equal(a.Part(name), p) {
								t.Fatalf("op %d: get %s part %s = %q, model %q", i/3, id, name, a.Part(name), p)
							}
						}
					}
				case 2: // delete
					_, inModel := model[id]
					if got := s.Delete(id); got != inModel {
						t.Fatalf("op %d: delete %s = %v, model %v", i/3, id, got, inModel)
					}
					delete(model, id)
				default: // trim a durable store's residency down to arg bytes
					s.mu.Lock()
					if mem := s.cfg.MemBytes; mem > 0 {
						s.cfg.MemBytes = 1 + int64(arg)
						s.trimLocked()
						s.cfg.MemBytes = mem
					}
					s.mu.Unlock()
				}
				residentBytes(t, s)
			}
			if s.Len() != len(model) {
				t.Fatalf("store holds %d artifacts, model %d", s.Len(), len(model))
			}
			if err := s.Close(); err != nil || s.Blobs() != 0 {
				t.Fatalf("Close left %d blobs (err %v)", s.Blobs(), err)
			}
		}
	})
}
