// Package fsjson implements the store port on the local filesystem as
// a directory of JSON records, with crash-safe writes throughout. It is
// the adapter behind rds-serve's -state-dir flag: monitors, pinned
// baseline profiles, and dataset-registry entries written through it
// survive a hard process kill.
//
// # Layout
//
// The state directory holds a CURRENT pointer file and the generation
// directory it names:
//
//	<root>/CURRENT                       -> "gen-000001\n"
//	<root>/gen-000001/<kind>/<id>.json   one envelope file per record
//
// A fresh boot creates gen-000001; Open follows CURRENT, so a state
// directory written by an earlier release opens without migration.
//
// Every record file is an envelope {kind, id, sha256, payload}: the
// payload is the canonical JSON document, the sha256 is its checksum.
// A truncated or tampered file fails the checksum (or fails to decode
// at all) and is refused with store.ErrCorrupt naming the file —
// storage is untrusted by design, mirroring provenance.ReadAuditJSON.
//
// # Crash safety
//
// Every Save writes a temp file in the record's directory, fsyncs it,
// renames it over the target, and fsyncs the directory — a reader (or
// a rebooted process) sees the old record or the new one, never a
// half-written file. A crash between write and rename leaves only the
// temp file, which List skips and the next Open removes. CURRENT is
// written the same way.
//
// # Boot semantics
//
// Open of a missing or empty directory is a fresh boot: the first
// generation is initialized. Open of a directory with state refuses to
// start — with an error naming the offending file — when CURRENT is
// missing, empty, or names a generation that does not exist. The
// adapter assumes a single writing process per state directory.
package fsjson

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/responsible-data-science/rds/internal/store"
)

// currentFile is the generation pointer file name.
const currentFile = "CURRENT"

// tmpPrefix marks in-flight temp files; Open removes any leftovers
// (crash debris), at the root and in the current generation's kind
// directories.
const tmpPrefix = ".tmp-"

// envelope is the on-disk form of one record.
type envelope struct {
	// Kind and ID identify the record; they must match the file's
	// location (self-describing files survive being copied around).
	Kind string `json:"kind"`
	ID   string `json:"id"`
	// SHA256 is the hex checksum of Payload's exact bytes.
	SHA256 string `json:"sha256"`
	// Payload is the record's canonical JSON document.
	Payload json.RawMessage `json:"payload"`
}

// Store is the filesystem adapter. Safe for concurrent use within one
// process; the state directory must have a single writing process.
type Store struct {
	root string

	mu  sync.Mutex
	gen string // current generation directory name, e.g. "gen-000001"
}

// Open attaches to (or initializes) the state directory at root. A
// missing or empty directory is a fresh boot; a directory with
// unrecognized contents, or with a missing, empty, or dangling CURRENT
// file, refuses to open with an error naming the problem file.
func Open(root string) (*Store, error) {
	if root == "" {
		return nil, fmt.Errorf("fsjson: state directory path is empty")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("fsjson: creating state dir: %w", err)
	}
	s := &Store{root: root}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("fsjson: reading state dir: %w", err)
	}
	var hasCurrent bool
	var gens, debris, strangers []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case name == currentFile:
			hasCurrent = true
		case strings.HasPrefix(name, tmpPrefix):
			debris = append(debris, name)
		case e.IsDir() && isGenName(name):
			gens = append(gens, name)
		default:
			strangers = append(strangers, name)
		}
	}
	if len(strangers) > 0 {
		return nil, fmt.Errorf("fsjson: %s does not look like a state dir (unexpected entry %q); refusing to touch it",
			root, strangers[0])
	}
	// Crash debris — temp files never renamed into place — is safe to
	// drop: by construction nothing references it.
	for _, name := range debris {
		if err := os.RemoveAll(filepath.Join(root, name)); err != nil {
			return nil, fmt.Errorf("fsjson: clearing crash debris %s: %w", name, err)
		}
	}
	if !hasCurrent {
		if len(gens) > 0 {
			return nil, fmt.Errorf("fsjson: %s has generation %s but no %s file; state dir is corrupt (a crash during first initialization leaves this — wipe the directory to start fresh)",
				root, gens[0], currentFile)
		}
		// Fresh boot: initialize generation 1, then flip CURRENT.
		s.gen = genName(1)
		if err := os.MkdirAll(filepath.Join(root, s.gen), 0o755); err != nil {
			return nil, fmt.Errorf("fsjson: initializing %s: %w", s.gen, err)
		}
		if err := s.writeCurrent(s.gen); err != nil {
			return nil, err
		}
		return s, nil
	}
	curPath := filepath.Join(root, currentFile)
	raw, err := os.ReadFile(curPath)
	if err != nil {
		return nil, fmt.Errorf("fsjson: reading %s: %w", curPath, err)
	}
	gen := strings.TrimSpace(string(raw))
	if gen == "" {
		return nil, fmt.Errorf("fsjson: %s is empty (truncated write?); refusing to start", curPath)
	}
	if !isGenName(gen) {
		return nil, fmt.Errorf("fsjson: %s names invalid generation %q; refusing to start", curPath, gen)
	}
	if fi, err := os.Stat(filepath.Join(root, gen)); err != nil || !fi.IsDir() {
		return nil, fmt.Errorf("fsjson: %s names generation %q which does not exist; refusing to start", curPath, gen)
	}
	s.gen = gen
	// A save interrupted between write and rename leaves its temp file
	// next to the record; for a dataset that is a whole copy of the
	// frame.
	orphans, err := fs.Glob(os.DirFS(root), gen+"/*/"+tmpPrefix+"*")
	if err != nil {
		return nil, fmt.Errorf("fsjson: listing crash debris: %w", err)
	}
	for _, name := range orphans {
		if err := os.Remove(filepath.Join(root, name)); err != nil {
			return nil, fmt.Errorf("fsjson: clearing crash debris %s: %w", name, err)
		}
	}
	return s, nil
}

// Save upserts one record with a crash-safe temp+fsync+rename write.
func (s *Store) Save(kind store.Kind, id string, payload []byte) error {
	if err := store.CheckKey(kind, id); err != nil {
		return err
	}
	data, err := encodeEnvelope(kind, id, payload)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := filepath.Join(s.root, s.gen, string(kind))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fsjson: creating %s: %w", dir, err)
	}
	return writeFileAtomic(dir, recordFile(id), data)
}

// Find reads one record, verifying the envelope and checksum; a
// truncated or tampered file answers store.ErrCorrupt naming the file.
func (s *Store) Find(kind store.Kind, id string) ([]byte, bool, error) {
	if err := store.CheckKey(kind, id); err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	path := filepath.Join(s.root, s.gen, string(kind), recordFile(id))
	s.mu.Unlock()
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("fsjson: reading %s: %w", path, err)
	}
	payload, err := decodeEnvelope(raw, kind, id, path)
	if err != nil {
		return nil, false, err
	}
	return payload, true, nil
}

// Delete removes one record; absent records are a no-op.
func (s *Store) Delete(kind store.Kind, id string) error {
	if err := store.CheckKey(kind, id); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	path := filepath.Join(s.root, s.gen, string(kind), recordFile(id))
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("fsjson: deleting %s: %w", path, err)
	}
	return nil
}

// List reads the kind's records ordered by ID ascending. Any corrupt
// record fails the whole listing — a boot-time restore must refuse to
// start on a bad record, not silently drop it.
func (s *Store) List(kind store.Kind) ([]store.Item, error) {
	if !store.ValidKind(kind) {
		return nil, fmt.Errorf("%w: %q", store.ErrInvalidKind, kind)
	}
	s.mu.Lock()
	dir := filepath.Join(s.root, s.gen, string(kind))
	s.mu.Unlock()
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return []store.Item{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("fsjson: reading %s: %w", dir, err)
	}
	var items []store.Item
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, tmpPrefix) || !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		path := filepath.Join(dir, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("fsjson: reading %s: %w", path, err)
		}
		payload, err := decodeEnvelope(raw, kind, id, path)
		if err != nil {
			return nil, err
		}
		items = append(items, store.Item{ID: id, Payload: payload})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].ID < items[j].ID })
	if items == nil {
		items = []store.Item{}
	}
	return items, nil
}

// Root returns the state directory path.
func (s *Store) Root() string { return s.root }

// writeCurrent atomically points CURRENT at gen.
func (s *Store) writeCurrent(gen string) error {
	return writeFileAtomic(s.root, currentFile, []byte(gen+"\n"))
}

// recordFile maps a record id to its file name.
func recordFile(id string) string { return id + ".json" }

// genName renders generation n as its directory name.
func genName(n int) string { return fmt.Sprintf("gen-%06d", n) }

// isGenName reports whether name is a well-formed generation directory
// name.
func isGenName(name string) bool {
	var n int
	_, err := fmt.Sscanf(name, "gen-%06d", &n)
	return err == nil && name == genName(n)
}

// encodeEnvelope canonicalizes the payload and wraps it with its
// checksum. The envelope is written around the canonical bytes, with
// kind, id and sha256 encoded as json.Marshal encodes them: the bytes
// equal json.Marshal(envelope{...}) without compacting the payload a
// second time.
func encodeEnvelope(kind store.Kind, id string, payload []byte) ([]byte, error) {
	canon, err := store.CanonicalJSON(payload)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(canon)
	kindJSON, _ := json.Marshal(string(kind)) // a string always encodes
	idJSON, _ := json.Marshal(id)
	data := make([]byte, 0, len(canon)+len(kindJSON)+len(idJSON)+len(sum)*2+64)
	data = append(append(data, `{"kind":`...), kindJSON...)
	data = append(append(data, `,"id":`...), idJSON...)
	data = append(append(data, `,"sha256":"`...), hex.EncodeToString(sum[:])...)
	data = append(append(data, `","payload":`...), canon...)
	return append(data, "}\n"...), nil
}

// decodeEnvelope validates one record file: JSON shape, identity
// fields, and the payload checksum. Every failure is store.ErrCorrupt
// naming the file, so boot logs point straight at the bad record.
func decodeEnvelope(raw []byte, kind store.Kind, id, path string) ([]byte, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("%w: %s is empty (truncated write?)", store.ErrCorrupt, path)
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, fmt.Errorf("%w: %s does not decode (truncated or tampered): %v", store.ErrCorrupt, path, err)
	}
	if env.Kind != string(kind) || env.ID != id {
		return nil, fmt.Errorf("%w: %s claims to be %s/%s", store.ErrCorrupt, path, env.Kind, env.ID)
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != env.SHA256 {
		return nil, fmt.Errorf("%w: %s failed its payload checksum (tampered?)", store.ErrCorrupt, path)
	}
	return append([]byte(nil), env.Payload...), nil
}

// newWriter wraps the destination file's writer; tests swap it for an
// error-injecting writer to prove a failed write never replaces the
// previous record generation.
var newWriter = func(f *os.File) interface{ Write([]byte) (int, error) } { return f }

// writeFileAtomic writes name under dir via temp file + fsync + rename
// + directory fsync: after a crash at any point, the target holds
// either its previous contents or the complete new ones.
func writeFileAtomic(dir, name string, data []byte) error {
	f, err := os.CreateTemp(dir, tmpPrefix+name+"-*")
	if err != nil {
		return fmt.Errorf("fsjson: creating temp file in %s: %w", dir, err)
	}
	tmp := f.Name()
	cleanup := func() {
		f.Close()
		os.Remove(tmp)
	}
	if _, err := newWriter(f).Write(data); err != nil {
		cleanup()
		return fmt.Errorf("fsjson: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("fsjson: fsyncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fsjson: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fsjson: publishing %s: %w", name, err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("fsjson: opening %s for fsync: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("fsjson: fsyncing %s: %w", dir, err)
	}
	return nil
}
