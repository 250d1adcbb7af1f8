// Package storage is the daemon's content-addressed artifact store: one
// index of artifacts, optionally backed by a directory.
//
// The index is a map plus one access-ordered list (least recently used at
// the back). Each entry holds an artifact's Info and, while resident, its
// parts. Without a directory every artifact is resident and lost on exit.
// With one (Config.Dir), every Put is written through to disk before it is
// indexed, a restarted store warm-scans the directory, and parts are
// resident only while they fit MemBytes: the least recently used lose
// residency first and are read back from disk, digests re-verified, on
// their next Get. See disk.go for the on-disk layout and its guarantees.
//
// Two byte limits share the one recency order. MaxBytes bounds the whole
// set: exceeding it evicts least-recently-used artifacts (from memory and
// disk), counted in server.cache.evictions and reported to OnEvict. TTL
// expiry evicts the same way. MemBytes only drops residency; the artifact
// stays stored, so nothing is counted or reported.
//
// Resident part contents are interned: one refcounted blob table, keyed by
// a per-store maphash of the bytes and confirmed with bytes.Equal, holds
// each distinct content once however many resident artifacts carry it (a
// network's survey.json is the same in every artifact built on it). Both
// byte limits, Info.Bytes and the gauges still count logical bytes: a
// shared blob counts once per artifact that carries it.
//
// The store owns every server.cache.* metric: hits and misses (Lookup),
// stored, dup_writes, quarantined, evictions, and the bytes and artifacts
// gauges.
package storage

import (
	"bytes"
	"container/list"
	"fmt"
	"hash/maphash"
	"os"
	"sort"
	"sync"
	"time"

	"wsan/internal/obs"
)

// Artifact is one completed job output: a bundle of named JSON documents
// ("parts") under a content address. Artifacts are immutable snapshots —
// once returned from a Store they stay valid even if the entry is
// subsequently evicted or deleted.
type Artifact struct {
	// ID is the content address: the hex SHA-256 of the producing request.
	ID string `json:"id"`
	// Kind names the producing job kind ("schedule", "simulate", ...).
	Kind string `json:"kind"`
	// Created is when the artifact was first stored.
	Created time.Time `json:"created"`
	// parts maps a part name (e.g. "schedule.json") to its bytes.
	parts map[string][]byte
	// size is the total part payload in bytes.
	size int64
}

// newArtifact assembles an artifact value from loaded parts. The map and
// its slices are owned by the artifact after the call.
func newArtifact(id, kind string, created time.Time, parts map[string][]byte) *Artifact {
	return &Artifact{ID: id, Kind: kind, Created: created, parts: parts, size: partBytes(parts)}
}

// Part returns the named part's bytes (nil if absent).
//
// Aliasing rule: the returned slice may be the store's resident copy,
// shared across Gets and across every resident artifact with an equal
// part, so callers must treat it as read-only. The store, conversely,
// never retains a caller's Put input: Put reuses an equal resident blob or
// copies, so mutating the map or slices passed to Put never corrupts
// stored data.
func (a *Artifact) Part(name string) []byte { return a.parts[name] }

// PartNames returns the sorted part names.
func (a *Artifact) PartNames() []string { return sortedNames(a.parts) }

// Bytes returns the total part payload size.
func (a *Artifact) Bytes() int64 { return a.size }

// Info describes a stored artifact without its part contents — what the
// paginated List returns and the HTTP artifact index serves.
type Info struct {
	ID      string    `json:"id"`
	Kind    string    `json:"kind"`
	Created time.Time `json:"created"`
	// Parts is the sorted part-name list.
	Parts []string `json:"parts"`
	// Bytes is the total part payload size.
	Bytes int64 `json:"bytes"`
}

// Eviction describes one artifact the store evicted.
type Eviction struct {
	// ID and Kind identify the evicted artifact.
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Bytes is the artifact's part payload size.
	Bytes int64 `json:"bytes"`
	// Reason is "capacity" (byte-budget LRU) or "ttl".
	Reason string `json:"reason"`
}

// defaultMemBytes is a durable store's residency budget when
// Config.MemBytes is unset.
const defaultMemBytes = 256 << 20

// Config parameterizes Open. The zero value is an unbounded memory store.
type Config struct {
	// Dir, when set, makes the store durable under this directory.
	Dir string
	// MaxBytes bounds the total part payload; exceeding it evicts
	// least-recently-used artifacts. 0 means unbounded.
	MaxBytes int64
	// MemBytes bounds the resident part payload of a durable store
	// (0 means defaultMemBytes). Ignored without Dir.
	MemBytes int64
	// TTL, when positive, evicts artifacts older than this, measured from
	// Created. Expired entries are never served: an access finding one
	// evicts it and reports a miss; SweepExpired reclaims the rest.
	TTL time.Duration
	// NoSync skips the per-file fsync of disk writes. Crash durability is
	// lost (atomicity via rename is kept on journaling filesystems); meant
	// for bulk loads and benchmarks, not for serving daemons.
	NoSync bool
	// Metrics (nil to disable) receives the server.cache.* metrics.
	Metrics obs.Sink
	// OnEvict, when non-nil, observes every eviction after the artifact is
	// gone. Called without the store's lock held.
	OnEvict func(Eviction)
	// Now overrides the clock (tests); nil uses time.Now.
	Now func() time.Time
}

// Store is the content-addressed artifact store. Safe for concurrent use.
type Store struct {
	cfg  Config
	disk *disk // nil for a memory-only store

	mu       sync.Mutex
	idx      map[string]*entry
	lru      *list.List // of *entry; front = most recently used
	size     int64      // part payload of every indexed artifact
	resident int64      // part payload of the resident ones
	// Resident entries always form a prefix of lru: every access makes
	// its entry resident and moves it to the front, and residency is
	// dropped from the back. cold is the last entry of that prefix (nil
	// when nothing is resident), so trimming residency never walks the
	// entries that are on disk only.
	cold   *entry
	closed bool
	// blobs interns the resident part contents by maphash under seed;
	// entries with equal sums chain through blob.next.
	seed  maphash.Seed
	blobs map[uint64]*blob
	// Work a locked section leaves for unlock, which runs it after
	// releasing the lock: directories to delete and evictions to report.
	trash   []string
	evicted []Eviction
}

// entry is one artifact's index record.
type entry struct {
	// Info is the artifact's metadata; Created is also its TTL clock.
	Info
	// art holds the parts while resident; nil while on disk only.
	art *Artifact
	// refs are the blobs art's parts reference, in Parts order (nil while
	// on disk only).
	refs []*blob
	// files are the part sizes and digests a disk read verifies against
	// (durable stores only).
	files []manifestPart
	elem  *list.Element
}

// Open returns a store. With cfg.Dir set it opens (creating if needed) the
// directory and warm-scans it: every artifact is verified and indexed,
// on disk only, in creation order; anything that fails verification is
// quarantined. The byte budget and TTL are enforced before Open returns,
// so reopening with a smaller budget trims the store at startup.
func Open(cfg Config) (*Store, error) {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Store{cfg: cfg, idx: make(map[string]*entry), lru: list.New(), seed: maphash.MakeSeed(), blobs: make(map[uint64]*blob)}
	if cfg.Dir != "" {
		if s.cfg.MemBytes <= 0 {
			s.cfg.MemBytes = defaultMemBytes
		}
		d, mans, quarantined, err := openDisk(cfg.Dir, cfg.NoSync)
		if err != nil {
			return nil, err
		}
		s.disk = d
		s.count("server.cache.quarantined", quarantined)
		sort.Slice(mans, func(i, j int) bool {
			if !mans[i].Created.Equal(mans[j].Created) {
				return mans[i].Created.Before(mans[j].Created)
			}
			return mans[i].ID < mans[j].ID
		})
		for _, m := range mans {
			// Oldest first, each pushed to the front: the newest artifact
			// ends up most recently used.
			e := &entry{Info: Info{ID: m.ID, Kind: m.Kind, Created: m.Created}, files: m.Parts}
			for _, p := range m.Parts {
				e.Parts = append(e.Parts, p.Name)
				e.Bytes += p.Size
			}
			sort.Strings(e.Parts)
			e.elem = s.lru.PushFront(e)
			s.idx[e.ID] = e
			s.size += e.Bytes
		}
	} else {
		s.cfg.MemBytes = 0
	}
	s.mu.Lock()
	s.enforceLocked()
	s.sweepLocked()
	s.unlock()
	return s, nil
}

// Lookup is the cache probe a job submission performs: Get plus
// server.cache.{hits,misses} accounting.
func (s *Store) Lookup(id string) (*Artifact, bool) {
	a, ok := s.Get(id)
	if ok {
		s.count("server.cache.hits", 1)
	} else {
		s.count("server.cache.misses", 1)
	}
	return a, ok
}

// Get fetches an artifact and marks it most recently used. An entry past
// its TTL is evicted and reported as a miss.
func (s *Store) Get(id string) (*Artifact, bool) {
	s.mu.Lock()
	e, ok := s.idx[id]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	if s.cfg.TTL > 0 && s.cfg.Now().Sub(e.Created) > s.cfg.TTL {
		s.evictLocked(e, "ttl")
		s.unlock()
		return nil, false
	}
	return s.serve(e)
}

// serve returns e's artifact and marks it most recently used. It is
// called with s.mu held and releases it. A resident artifact is returned
// as is; otherwise the parts are read back from disk, re-verified and
// hashed outside the lock, then interned. A read that fails while e is
// still indexed quarantines the artifact; a read that raced e's removal is
// a miss.
func (s *Store) serve(e *entry) (*Artifact, bool) {
	if e.art == nil {
		s.mu.Unlock()
		parts, err := s.disk.read(e.ID, e.files)
		var sums []uint64
		if err == nil {
			sums = s.sumParts(e.Parts, parts)
		}
		s.mu.Lock()
		if s.idx[e.ID] != e {
			s.mu.Unlock()
			return nil, false
		}
		if err != nil {
			s.unindexLocked(e)
			s.disk.quarantine(e.ID)
			s.unlock()
			s.count("server.cache.quarantined", 1)
			return nil, false
		}
		if e.art == nil { // a concurrent read may have won; then parts stay private
			e.refs = make([]*blob, len(e.Parts))
			s.internLocked(e.Parts, sums, parts, e.refs)
			e.art = newArtifact(e.ID, e.Kind, e.Created, parts)
			s.resident += e.Bytes
		}
	}
	s.touchLocked(e)
	a := e.art
	s.trimLocked()
	s.mu.Unlock()
	return a, true
}

// Put stores a completed artifact under its ID; a durable store publishes
// it on disk before indexing it. Each part shares an equal resident blob
// or is copied, so the store never keeps the caller's buffers. Storing an
// ID twice keeps the first copy (content addressing guarantees both hold
// the same request's output), refreshes its recency, and returns it.
func (s *Store) Put(id, kind string, parts map[string][]byte) (*Artifact, error) {
	names := sortedNames(parts)
	sums := s.sumParts(names, parts)
	refs := make([]*blob, len(names))
	s.mu.Lock()
	if e, ok := s.idx[id]; ok {
		return s.dupLocked(e)
	}
	for i, name := range names {
		if b := s.findLocked(sums[i], parts[name]); b != nil {
			b.refs++
			refs[i] = b
		}
	}
	s.mu.Unlock()
	own := make(map[string][]byte, len(parts))
	for i, name := range names {
		if refs[i] != nil {
			own[name] = refs[i].data
		} else {
			own[name] = append(make([]byte, 0, len(parts[name])), parts[name]...)
		}
	}
	a := newArtifact(id, kind, s.cfg.Now().UTC(), own)
	e := &entry{Info: Info{ID: id, Kind: kind, Created: a.Created, Parts: names, Bytes: a.size}, art: a, refs: refs}
	var staged string
	if s.disk != nil {
		var err error
		if staged, e.files, err = s.disk.stage(a); err != nil {
			s.mu.Lock()
			s.releaseLocked(refs)
			s.mu.Unlock()
			return nil, err
		}
	}
	s.mu.Lock()
	if s.closed {
		s.releaseLocked(refs)
		s.mu.Unlock()
		_ = os.RemoveAll(staged)
		return nil, fmt.Errorf("storage: store closed")
	}
	if dup, ok := s.idx[id]; ok {
		// A racing Put indexed this ID while we staged: keep the first.
		// Staging left behind is cleared at the next Open.
		s.releaseLocked(refs)
		_ = os.RemoveAll(staged)
		return s.dupLocked(dup)
	}
	if staged != "" {
		if err := s.disk.publish(staged, id); err != nil {
			s.releaseLocked(refs)
			s.mu.Unlock()
			_ = os.RemoveAll(staged)
			return nil, fmt.Errorf("storage: publishing %s: %w", id, err)
		}
	}
	s.internLocked(names, sums, own, refs)
	e.elem = s.lru.PushFront(e)
	s.idx[id] = e
	s.size += e.Bytes
	s.resident += e.Bytes
	s.touchLocked(e)
	s.trimLocked()
	s.enforceLocked()
	s.unlock()
	s.count("server.cache.stored", 1)
	if s.disk != nil {
		s.disk.syncDir(s.disk.objectsDir())
	}
	return a, nil
}

// dupLocked answers a Put of an already indexed ID (releasing s.mu).
func (s *Store) dupLocked(e *entry) (*Artifact, error) {
	a, ok := s.serve(e)
	s.count("server.cache.dup_writes", 1)
	if ok {
		return a, nil
	}
	return nil, fmt.Errorf("storage: artifact %s vanished during duplicate put", e.ID)
}

// Delete removes an artifact from memory and disk, reporting whether it
// existed.
func (s *Store) Delete(id string) bool {
	s.mu.Lock()
	e, ok := s.idx[id]
	if ok {
		s.dropLocked(e)
	}
	s.unlock()
	return ok
}

// SweepExpired reclaims TTL-expired artifacts that have not been touched
// since expiring (the daemon calls it periodically). It returns how many
// artifacts were evicted.
func (s *Store) SweepExpired() int {
	s.mu.Lock()
	n := s.sweepLocked()
	s.unlock()
	return n
}

// Len returns the number of stored artifacts.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// Bytes returns the total stored part payload.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// List pages the stored artifacts sorted by ID. The cursor contract is
// strictly-greater resume: every returned ID is > after (lexicographic
// over the hex content addresses), so a cursor naming an artifact that was
// deleted or evicted between pages still resumes at the right position.
// limit > 0 caps the page; the second return is the next page's cursor
// ("" when this page exhausts the listing).
func (s *Store) List(after string, limit int) ([]Info, string) {
	s.mu.Lock()
	infos := make([]Info, 0, len(s.idx))
	for _, e := range s.idx {
		if e.ID > after {
			infos = append(infos, e.Info)
		}
	}
	s.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	if limit > 0 && limit < len(infos) {
		return infos[:limit], infos[limit-1].ID
	}
	return infos, ""
}

// Quarantined counts the entries under the store directory's quarantine
// area (0 for a memory-only store) — diagnostics for tests and the
// warm-scan bench.
func (s *Store) Quarantined() int {
	if s.disk == nil {
		return 0
	}
	return s.disk.quarantined()
}

// Blobs counts the distinct part contents the store holds resident —
// diagnostics for tests. Resident artifacts with equal parts share one.
func (s *Store) Blobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, b := range s.blobs {
		for ; b != nil; b = b.next {
			n++
		}
	}
	return n
}

// Close releases the index; a durable store's artifacts stay on disk for
// the next Open. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.idx = make(map[string]*entry)
	s.lru.Init()
	s.size, s.resident, s.cold = 0, 0, nil
	s.blobs = make(map[uint64]*blob)
	return nil
}

// touchLocked makes e, which must be resident, the most recently used
// entry, keeping cold on the last resident one.
func (s *Store) touchLocked(e *entry) {
	if e == s.cold {
		if p := prevEntry(e); p != nil {
			s.cold = p
		}
	}
	s.lru.MoveToFront(e.elem)
	if s.cold == nil {
		s.cold = e
	}
}

// trimLocked drops the residency of least-recently-used artifacts until
// the resident payload fits MemBytes. Nothing is evicted.
func (s *Store) trimLocked() {
	for s.cfg.MemBytes > 0 && s.resident > s.cfg.MemBytes && s.cold != nil {
		c := s.cold
		s.cold = prevEntry(c)
		s.releaseLocked(c.refs)
		c.art, c.refs = nil, nil
		s.resident -= c.Bytes
	}
}

// enforceLocked evicts least-recently-used artifacts until the byte
// budget is met. The entry just touched sits at the front, so it is
// evicted only when it alone exceeds the budget.
func (s *Store) enforceLocked() {
	for s.cfg.MaxBytes > 0 && s.size > s.cfg.MaxBytes {
		s.evictLocked(s.lru.Back().Value.(*entry), "capacity")
	}
}

// sweepLocked evicts every TTL-expired artifact and returns how many.
func (s *Store) sweepLocked() int {
	if s.cfg.TTL <= 0 {
		return 0
	}
	n := 0
	now := s.cfg.Now()
	for elem := s.lru.Back(); elem != nil; {
		prev := elem.Prev()
		if e := elem.Value.(*entry); now.Sub(e.Created) > s.cfg.TTL {
			s.evictLocked(e, "ttl")
			n++
		}
		elem = prev
	}
	return n
}

// evictLocked drops e and queues its eviction report.
func (s *Store) evictLocked(e *entry, reason string) {
	s.dropLocked(e)
	s.evicted = append(s.evicted, Eviction{ID: e.ID, Kind: e.Kind, Bytes: e.Bytes, Reason: reason})
}

// dropLocked removes e from the index and moves its directory out of
// serving position; unlock deletes it.
func (s *Store) dropLocked(e *entry) {
	s.unindexLocked(e)
	if s.disk != nil {
		if dir := s.disk.trash(e.ID); dir != "" {
			s.trash = append(s.trash, dir)
		}
	}
}

// unindexLocked removes e from the index and the byte accounting.
func (s *Store) unindexLocked(e *entry) {
	if e == s.cold {
		s.cold = prevEntry(e)
	}
	s.lru.Remove(e.elem)
	delete(s.idx, e.ID)
	s.size -= e.Bytes
	if e.art != nil {
		s.resident -= e.Bytes
		s.releaseLocked(e.refs)
		e.refs = nil
	}
}

// unlock refreshes the size gauges, releases s.mu, and then does the work
// the locked section queued: deleting trashed directories and counting and
// reporting evictions. The gauges are set under the lock so that the last
// values written always describe the final index.
func (s *Store) unlock() {
	trash, evicted := s.trash, s.evicted
	s.trash, s.evicted = nil, nil
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Gauge("server.cache.bytes", float64(s.size))
		s.cfg.Metrics.Gauge("server.cache.artifacts", float64(len(s.idx)))
	}
	s.mu.Unlock()
	for _, dir := range trash {
		_ = os.RemoveAll(dir) // a failure leaves tmp/ debris the next Open clears
	}
	for _, ev := range evicted {
		s.count("server.cache.evictions", 1)
		if s.cfg.OnEvict != nil {
			s.cfg.OnEvict(ev)
		}
	}
}

// count adds n to one server.cache counter.
func (s *Store) count(name string, n int) {
	if s.cfg.Metrics != nil && n > 0 {
		s.cfg.Metrics.Count(name, int64(n))
	}
}

// prevEntry is the entry just more recently used than e (nil at the
// front).
func prevEntry(e *entry) *entry {
	if p := e.elem.Prev(); p != nil {
		return p.Value.(*entry)
	}
	return nil
}

// partBytes sums a part map's payload sizes.
func partBytes(parts map[string][]byte) int64 {
	var n int64
	for _, p := range parts {
		n += int64(len(p))
	}
	return n
}

// sortedNames returns a part map's names in sorted order.
func sortedNames(parts map[string][]byte) []string {
	names := make([]string, 0, len(parts))
	for n := range parts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// blob is one interned part content, shared by every resident artifact
// whose part equals it.
type blob struct {
	sum  uint64 // maphash of data under the store's seed
	data []byte
	refs int   // resident parts (and in-flight Puts) referencing data
	next *blob // the next blob with the same sum
}

// sumParts hashes the named parts; call it outside the lock.
func (s *Store) sumParts(names []string, parts map[string][]byte) []uint64 {
	sums := make([]uint64, len(names))
	for i, name := range names {
		sums[i] = maphash.Bytes(s.seed, parts[name])
	}
	return sums
}

// findLocked returns the blob holding data (whose hash is sum), or nil.
func (s *Store) findLocked(sum uint64, data []byte) *blob {
	for b := s.blobs[sum]; b != nil; b = b.next {
		if bytes.Equal(b.data, data) {
			return b
		}
	}
	return nil
}

// internLocked fills the nil slots of refs, which parallel names and
// sums: an equal resident blob gains a reference and replaces the part's
// bytes in parts; otherwise the part, a buffer the store owns, becomes a
// new blob.
func (s *Store) internLocked(names []string, sums []uint64, parts map[string][]byte, refs []*blob) {
	for i, name := range names {
		if refs[i] != nil {
			continue
		}
		b := s.findLocked(sums[i], parts[name])
		if b == nil {
			b = &blob{sum: sums[i], data: parts[name], next: s.blobs[sums[i]]}
			s.blobs[b.sum] = b
		}
		b.refs++
		refs[i] = b
		parts[name] = b.data
	}
}

// releaseLocked drops one reference to each non-nil blob in refs; a blob
// leaves the table with its last reference.
func (s *Store) releaseLocked(refs []*blob) {
	for _, b := range refs {
		if b == nil {
			continue
		}
		if b.refs--; b.refs > 0 {
			continue
		}
		head := s.blobs[b.sum]
		switch {
		case head == b && b.next == nil:
			delete(s.blobs, b.sum)
		case head == b:
			s.blobs[b.sum] = b.next
		default:
			// b is further down the chain, or in no chain at all when Close
			// emptied the table while a Put held b.
			for p := head; p != nil; p = p.next {
				if p.next == b {
					p.next = b.next
					break
				}
			}
		}
	}
}
