package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"wsan/internal/obs"
)

// fakeClock is a manually advanced time source for TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// refModel is the naive reference implementation of the byte-budget LRU +
// TTL policy: a slice ordered least- to most-recently-used, re-scanned on
// every operation. Deliberately simple enough to be obviously correct.
type refModel struct {
	maxBytes int64
	ttl      time.Duration
	now      func() time.Time
	order    []refEntry // index 0 = least recently used
}

type refEntry struct {
	id      string
	bytes   int64
	created time.Time
}

func (m *refModel) expired(e refEntry) bool {
	return m.ttl > 0 && m.now().Sub(e.created) > m.ttl
}

func (m *refModel) bytes() int64 {
	var n int64
	for _, e := range m.order {
		n += e.bytes
	}
	return n
}

func (m *refModel) find(id string) int {
	for i, e := range m.order {
		if e.id == id {
			return i
		}
	}
	return -1
}

func (m *refModel) remove(i int) {
	m.order = append(m.order[:i:i], m.order[i+1:]...)
}

func (m *refModel) enforce() {
	if m.maxBytes <= 0 {
		return
	}
	for m.bytes() > m.maxBytes && len(m.order) > 0 {
		m.remove(0)
	}
}

func (m *refModel) put(id string, bytes int64) {
	if i := m.find(id); i >= 0 {
		// Duplicate put refreshes recency only (the store keeps its first
		// copy).
		e := m.order[i]
		m.remove(i)
		m.order = append(m.order, e)
		return
	}
	m.order = append(m.order, refEntry{id: id, bytes: bytes, created: m.now()})
	m.enforce()
}

// get reports a hit, touching the entry; an expired entry is evicted and
// misses.
func (m *refModel) get(id string) bool {
	i := m.find(id)
	if i < 0 {
		return false
	}
	e := m.order[i]
	if m.expired(e) {
		m.remove(i)
		return false
	}
	m.remove(i)
	m.order = append(m.order, e)
	return true
}

func (m *refModel) sweep() {
	kept := m.order[:0]
	for _, e := range m.order {
		if !m.expired(e) {
			kept = append(kept, e)
		}
	}
	m.order = kept
}

func (m *refModel) ids() map[string]bool {
	ids := make(map[string]bool, len(m.order))
	for _, e := range m.order {
		ids[e.id] = true
	}
	return ids
}

// agree fails the test unless store and model hold exactly the same IDs
// with the same byte total.
func agree(t *testing.T, step int, e *Store, m *refModel) {
	t.Helper()
	want := m.ids()
	if e.Len() != len(want) {
		t.Fatalf("step %d: store holds %d artifacts, model %d", step, e.Len(), len(want))
	}
	if e.Bytes() != m.bytes() {
		t.Fatalf("step %d: store accounts %d bytes, model %d", step, e.Bytes(), m.bytes())
	}
	infos, _ := e.List("", 0)
	for _, info := range infos {
		if !want[info.ID] {
			t.Fatalf("step %d: store serves %s which the model evicted", step, info.ID)
		}
	}
}

// TestEvictingMatchesReferenceModel drives the store and the naive model
// through the same random schedule of puts, gets, clock advances, and
// sweeps, demanding identical contents after every step. It runs on the
// memory-only and the durable configuration; the durable one has a small
// residency budget, so residency churns without changing the policy.
func TestEvictingMatchesReferenceModel(t *testing.T) {
	configs := map[string]func(t *testing.T) Config{
		"memory": func(t *testing.T) Config { return Config{} },
		"disk": func(t *testing.T) Config {
			return Config{Dir: t.TempDir(), NoSync: true, MemBytes: 200}
		},
	}
	for name, mkConfig := range configs {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				clock := newFakeClock()
				const (
					maxBytes = 512
					ttl      = time.Hour
					idSpace  = 24
				)
				cfg := mkConfig(t)
				cfg.MaxBytes, cfg.TTL, cfg.Now = maxBytes, ttl, clock.Now
				e := mustOpen(t, cfg)
				defer e.Close()
				model := &refModel{maxBytes: maxBytes, ttl: ttl, now: clock.Now}

				for step := 0; step < 400; step++ {
					id := testID(rng.Intn(idSpace))
					switch op := rng.Intn(10); {
					case op < 4: // put
						size := 16 + rng.Intn(112)
						parts := map[string][]byte{"p.bin": make([]byte, size)}
						if _, err := e.Put(id, "schedule", parts); err != nil {
							t.Fatalf("step %d: put: %v", step, err)
						}
						model.put(id, int64(size))
					case op < 8: // get
						_, hit := e.Get(id)
						if want := model.get(id); hit != want {
							t.Fatalf("step %d: get(%s) hit=%v, model says %v", step, id, hit, want)
						}
					case op < 9: // advance the clock, sometimes past the TTL
						clock.Advance(time.Duration(rng.Intn(50)) * time.Minute)
					default:
						e.SweepExpired()
						model.sweep()
					}
					agree(t, step, e, model)
					if cfg.MemBytes > 0 && residentBytes(t, e) > cfg.MemBytes {
						t.Fatalf("step %d: resident payload %d over the %d budget", step, residentBytes(t, e), cfg.MemBytes)
					}
				}
			})
		}
	}
}

// TestEvictingSeedsFromWarmScan verifies that reopening a durable store
// with a smaller budget enforces it immediately, evicting oldest-first.
func TestEvictingSeedsFromWarmScan(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, Config{Dir: dir})
	for i := 0; i < 4; i++ {
		if _, err := d.Put(testID(i), "schedule", map[string][]byte{"p.bin": make([]byte, 100)}); err != nil {
			t.Fatal(err)
		}
		// Created timestamps must be distinct for deterministic ordering.
		time.Sleep(2 * time.Millisecond)
	}

	reg := obs.NewRegistry()
	var evictedIDs []string
	e := mustOpen(t, Config{
		Dir:      dir,
		MaxBytes: 250,
		Metrics:  reg,
		OnEvict:  func(ev Eviction) { evictedIDs = append(evictedIDs, ev.ID) },
	})
	defer e.Close()

	if e.Len() != 2 || e.Bytes() != 200 {
		t.Fatalf("budget not enforced at startup: len=%d bytes=%d", e.Len(), e.Bytes())
	}
	if len(evictedIDs) != 2 || evictedIDs[0] != testID(0) || evictedIDs[1] != testID(1) {
		t.Fatalf("expected oldest-first startup eviction of %s,%s; got %v", testID(0), testID(1), evictedIDs)
	}
	if got := reg.CounterValue("server.cache.evictions"); got != 2 {
		t.Fatalf("evictions counter = %d, want 2", got)
	}
	for i := 2; i < 4; i++ {
		if _, ok := e.Get(testID(i)); !ok {
			t.Fatalf("survivor %s not served", testID(i))
		}
	}
}

// TestEvictingTTLNeverServesExpired pins the lazy-expiry contract: an
// entry past its TTL misses on access even before any sweep runs.
func TestEvictingTTLNeverServesExpired(t *testing.T) {
	clock := newFakeClock()
	var evs []Eviction
	e := mustOpen(t, Config{
		TTL:     time.Minute,
		Now:     clock.Now,
		OnEvict: func(ev Eviction) { evs = append(evs, ev) },
	})
	defer e.Close()
	if _, err := e.Put(testID(0), "schedule", map[string][]byte{"p.bin": make([]byte, 10)}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(61 * time.Second)
	if _, ok := e.Get(testID(0)); ok {
		t.Fatal("expired artifact served")
	}
	if len(evs) != 1 || evs[0].Reason != "ttl" {
		t.Fatalf("expected one ttl eviction, got %+v", evs)
	}
	if n := e.SweepExpired(); n != 0 {
		t.Fatalf("sweep found %d entries after lazy eviction, want 0", n)
	}
}

// TestEvictingConcurrency hammers the memory-only and the durable
// configuration from many goroutines with every operation, Delete
// included; the durable run's 2 KiB residency budget keeps residency
// churning. Run under -race it is the concurrency smoke for the package.
// Once the goroutines finish, the index, List, the residency budget and
// the size gauges must all agree.
func TestEvictingConcurrency(t *testing.T) {
	const maxBytes, memBytes = 8 << 10, 2 << 10
	configs := map[string]func(t *testing.T) Config{
		"memory": func(t *testing.T) Config { return Config{} },
		"durable": func(t *testing.T) Config {
			return Config{Dir: t.TempDir(), NoSync: true, MemBytes: memBytes}
		},
	}
	for name, mkConfig := range configs {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := mkConfig(t)
			cfg.MaxBytes, cfg.TTL, cfg.Metrics, cfg.OnEvict = maxBytes, time.Hour, reg, func(Eviction) {}
			e := mustOpen(t, cfg)
			defer e.Close()

			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					for i := 0; i < 200; i++ {
						id := testID(rng.Intn(32))
						switch rng.Intn(5) {
						case 0:
							_, _ = e.Put(id, "schedule", map[string][]byte{"p.bin": make([]byte, 64+rng.Intn(256))})
						case 1:
							_, _ = e.Lookup(id)
						case 2:
							if a, ok := e.Get(id); ok {
								_ = a.Part("p.bin")
							}
						case 3:
							e.Delete(id)
						default:
							e.List("", 10)
							if i%50 == 0 {
								e.SweepExpired()
							}
						}
					}
				}(g)
			}
			wg.Wait()

			infos, _ := e.List("", 0)
			var listed int64
			for _, info := range infos {
				listed += info.Bytes
			}
			if e.Len() != len(infos) {
				t.Fatalf("index holds %d entries, List %d", e.Len(), len(infos))
			}
			if e.Bytes() != listed || e.Bytes() > maxBytes {
				t.Fatalf("Bytes = %d, List sums %d, budget %d", e.Bytes(), listed, maxBytes)
			}
			resident := residentBytes(t, e)
			if cfg.MemBytes > 0 && resident > cfg.MemBytes {
				t.Fatalf("resident payload %d over the %d budget", resident, cfg.MemBytes)
			}
			gauges := reg.Snapshot().Gauges
			if gauges["server.cache.bytes"] != float64(listed) || gauges["server.cache.artifacts"] != float64(len(infos)) {
				t.Fatalf("gauges bytes=%v artifacts=%v, want %d/%d",
					gauges["server.cache.bytes"], gauges["server.cache.artifacts"], listed, len(infos))
			}
		})
	}
}
