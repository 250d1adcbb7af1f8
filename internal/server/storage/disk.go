package storage

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"
)

// On-disk layout under the store root:
//
//	root/
//	  objects/<id>/manifest.json   artifact metadata + part digests
//	  objects/<id>/<part files>    exact part bytes, one file per part
//	  tmp/<id>.<seq>/              write staging and deleted artifacts (never visible; cleared at open)
//	  quarantine/<id>.<n>/         entries the warm-scan or a read refused to serve
//
// Writes stage the whole artifact — every part plus the manifest, each
// fsynced — in a fresh tmp directory, then publish it with one
// os.Rename(tmp, objects/<id>). Rename is atomic on POSIX, so a crash at
// any point leaves either no visible artifact (staging debris in tmp/,
// removed at next open) or a complete one. Nothing under objects/ is ever
// written in place; a delete renames the directory back into tmp/ first.
//
// The disk holds no index of its own: the Store indexes what openDisk's
// warm-scan returns and what stage/publish add. publish, trash and
// quarantine run under the Store's lock so its index and objects/ always
// agree; stage and read run outside it.

// manifest is the artifact metadata document stored next to the parts.
type manifest struct {
	ID      string         `json:"id"`
	Kind    string         `json:"kind"`
	Created time.Time      `json:"created"`
	Parts   []manifestPart `json:"parts"`
}

// manifestPart records one part's name, size, and content digest.
type manifestPart struct {
	Name   string `json:"name"`
	Size   int64  `json:"size"`
	SHA256 string `json:"sha256"`
}

// manifestName is the metadata file of each artifact directory. The name
// is reserved: a part may not be called this.
const manifestName = "manifest.json"

// disk is a durable store's directory.
type disk struct {
	root   string
	noSync bool
	seq    atomic.Uint64 // names staging, trash and quarantine directories

	// Failure-injection points for crash-recovery tests: when non-nil they
	// run before the real fsync / rename and abort the operation by
	// returning an error (simulating a crash at that point).
	failSync   func(path string) error
	failRename func(oldpath, newpath string) error
	// afterRead, when non-nil, runs after read has loaded and verified an
	// artifact's files (tests use it to race a second read).
	afterRead func(id string)
}

// openDisk opens (creating if needed) the directory and warm-scans it:
// every artifact directory's manifest is loaded and every part's size and
// SHA-256 digest verified. Entries that fail verification — truncated
// parts, bit rot, missing files, unreadable manifests — are moved to
// root/quarantine, and counted in the third result, rather than returned.
// Staging debris from writes interrupted by a crash is deleted: it was
// never visible.
func openDisk(dir string, noSync bool) (*disk, []manifest, int, error) {
	d := &disk{root: dir, noSync: noSync}
	for _, sub := range []string{d.objectsDir(), d.tmpDir(), d.quarantineDir()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, nil, 0, fmt.Errorf("storage: creating %s: %w", sub, err)
		}
	}
	debris, err := os.ReadDir(d.tmpDir())
	if err != nil {
		return nil, nil, 0, fmt.Errorf("storage: scanning staging: %w", err)
	}
	for _, e := range debris {
		_ = os.RemoveAll(filepath.Join(d.tmpDir(), e.Name()))
	}
	dirs, err := os.ReadDir(d.objectsDir())
	if err != nil {
		return nil, nil, 0, fmt.Errorf("storage: scanning %s: %w", d.objectsDir(), err)
	}
	var mans []manifest
	quarantined := 0
	for _, de := range dirs {
		man, err := d.verify(de)
		if err != nil {
			d.quarantine(de.Name())
			quarantined++
			continue
		}
		mans = append(mans, man)
	}
	return d, mans, quarantined, nil
}

func (d *disk) objectsDir() string    { return filepath.Join(d.root, "objects") }
func (d *disk) tmpDir() string        { return filepath.Join(d.root, "tmp") }
func (d *disk) quarantineDir() string { return filepath.Join(d.root, "quarantine") }
func (d *disk) artifactDir(id string) string {
	return filepath.Join(d.objectsDir(), id)
}

// spare returns a fresh path for id under parent.
func (d *disk) spare(parent, id string) string {
	return filepath.Join(parent, fmt.Sprintf("%s.%d", id, d.seq.Add(1)))
}

// verify loads one artifact directory's manifest and checks every part
// file against it.
func (d *disk) verify(de os.DirEntry) (manifest, error) {
	var man manifest
	id := de.Name()
	if !de.IsDir() || !validID(id) {
		return man, fmt.Errorf("storage: %s is not an artifact directory", id)
	}
	raw, err := os.ReadFile(filepath.Join(d.artifactDir(id), manifestName))
	if err != nil {
		return man, err
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return man, fmt.Errorf("storage: artifact %s: bad manifest: %w", id, err)
	}
	if man.ID != id {
		return man, fmt.Errorf("storage: artifact %s: manifest claims ID %s", id, man.ID)
	}
	for _, p := range man.Parts {
		if err := validPartName(p.Name); err != nil {
			return man, err
		}
	}
	_, err = d.read(id, man.Parts)
	return man, err
}

// read loads an artifact's parts into fresh buffers, checking each against
// its recorded size and digest.
func (d *disk) read(id string, files []manifestPart) (map[string][]byte, error) {
	parts := make(map[string][]byte, len(files))
	for _, p := range files {
		data, err := os.ReadFile(filepath.Join(d.artifactDir(id), p.Name))
		if err != nil {
			return nil, err
		}
		if int64(len(data)) != p.Size {
			return nil, fmt.Errorf("storage: artifact %s part %s: %d bytes, manifest says %d",
				id, p.Name, len(data), p.Size)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != p.SHA256 {
			return nil, fmt.Errorf("storage: artifact %s part %s: digest mismatch", id, p.Name)
		}
		parts[p.Name] = data
	}
	if d.afterRead != nil {
		d.afterRead(id)
	}
	return parts, nil
}

// quarantine moves an artifact directory aside so it is never served,
// preserving the bytes for inspection.
func (d *disk) quarantine(id string) {
	if err := os.Rename(d.artifactDir(id), d.spare(d.quarantineDir(), id)); err != nil {
		// A rename that fails (cross-device, permissions) must still get
		// the entry out of serving position.
		_ = os.RemoveAll(d.artifactDir(id))
	}
}

// trash moves a deleted artifact's directory into tmp/ and returns its new
// path for the caller to remove ("" when it was removed in place).
func (d *disk) trash(id string) string {
	dst := d.spare(d.tmpDir(), id)
	if err := os.Rename(d.artifactDir(id), dst); err != nil {
		_ = os.RemoveAll(d.artifactDir(id))
		return ""
	}
	return dst
}

// quarantined counts the entries currently under root/quarantine.
func (d *disk) quarantined() int {
	dirs, err := os.ReadDir(d.quarantineDir())
	if err != nil {
		return 0
	}
	return len(dirs)
}

// validID accepts hex content addresses (the only IDs the daemon writes).
func validID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for _, c := range id {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// validPartName rejects part names that cannot be one plain file inside
// the artifact directory.
func validPartName(name string) error {
	switch {
	case name == "" || name == "." || name == "..":
		return fmt.Errorf("storage: invalid part name %q", name)
	case name == manifestName:
		return fmt.Errorf("storage: part name %q is reserved", name)
	case strings.ContainsAny(name, "/\\") || strings.ContainsRune(name, 0):
		return fmt.Errorf("storage: invalid part name %q", name)
	}
	return nil
}

// stage writes every part plus the manifest into a fresh tmp directory,
// each file fsynced unless noSync, and returns the directory and the
// manifest's part records. Nothing is visible until publish; on error the
// staging is already removed.
func (d *disk) stage(a *Artifact) (string, []manifestPart, error) {
	if !validID(a.ID) {
		return "", nil, fmt.Errorf("storage: invalid artifact ID %q", a.ID)
	}
	names := a.PartNames()
	for _, name := range names {
		if err := validPartName(name); err != nil {
			return "", nil, err
		}
	}
	staging := d.spare(d.tmpDir(), a.ID)
	if err := os.MkdirAll(staging, 0o755); err != nil {
		return "", nil, fmt.Errorf("storage: staging %s: %w", a.ID, err)
	}
	man := manifest{ID: a.ID, Kind: a.Kind, Created: a.Created}
	err := func() error {
		for _, name := range names {
			data := a.parts[name]
			sum := sha256.Sum256(data)
			man.Parts = append(man.Parts, manifestPart{
				Name: name, Size: int64(len(data)), SHA256: hex.EncodeToString(sum[:]),
			})
			if err := d.writeFile(filepath.Join(staging, name), data); err != nil {
				return err
			}
		}
		raw, err := json.MarshalIndent(man, "", "  ")
		if err != nil {
			return err
		}
		return d.writeFile(filepath.Join(staging, manifestName), append(raw, '\n'))
	}()
	if err != nil {
		_ = os.RemoveAll(staging)
		return "", nil, err
	}
	return staging, man.Parts, nil
}

// publish makes a staged artifact visible with one rename (honoring the
// failRename injection point).
func (d *disk) publish(staging, id string) error {
	if fail := d.failRename; fail != nil {
		if err := fail(staging, d.artifactDir(id)); err != nil {
			return err
		}
	}
	return os.Rename(staging, d.artifactDir(id))
}

// writeFile writes one staged file and fsyncs it (honoring noSync and the
// failSync injection point).
func (d *disk) writeFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if fail := d.failSync; fail != nil {
		if err := fail(path); err != nil {
			f.Close()
			return err
		}
	}
	if !d.noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// syncDir best-effort fsyncs a directory so a published rename itself is
// durable.
func (d *disk) syncDir(path string) {
	if d.noSync {
		return
	}
	if f, err := os.Open(path); err == nil {
		_ = f.Sync()
		f.Close()
	}
}
