// Package memory implements the store port in process memory: the
// in-process store tests use, and the contract suite's second adapter.
// Nothing survives the process. Despite living on the heap it keeps
// the port's untrusted-storage posture: payloads are checksummed on
// Save and verified on every read, so the contract suite's
// corruption-rejection property holds here exactly as it does for the
// filesystem adapter.
package memory

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"

	"github.com/responsible-data-science/rds/internal/store"
)

// record is one stored payload with its at-rest checksum.
type record struct {
	payload []byte
	sum     [sha256.Size]byte
}

// Store is the in-memory adapter. The zero value is not usable; call
// New. Safe for concurrent use.
type Store struct {
	mu    sync.Mutex
	kinds map[store.Kind]map[string]record
}

// New returns an empty in-memory store.
func New() *Store {
	return &Store{kinds: map[store.Kind]map[string]record{}}
}

// Save upserts one record, canonicalizing and checksumming the payload.
func (s *Store) Save(kind store.Kind, id string, payload []byte) error {
	if err := store.CheckKey(kind, id); err != nil {
		return err
	}
	canon, err := store.CanonicalJSON(payload)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.kinds[kind]
	if m == nil {
		m = map[string]record{}
		s.kinds[kind] = m
	}
	m[id] = record{payload: canon, sum: sha256.Sum256(canon)}
	return nil
}

// Find returns the record's canonical payload, verifying the at-rest
// checksum; a tampered record answers store.ErrCorrupt.
func (s *Store) Find(kind store.Kind, id string) ([]byte, bool, error) {
	if err := store.CheckKey(kind, id); err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.kinds[kind][id]
	if !ok {
		return nil, false, nil
	}
	if sha256.Sum256(rec.payload) != rec.sum {
		return nil, false, corruptErr(kind, id)
	}
	return append([]byte(nil), rec.payload...), true, nil
}

// Delete removes one record; absent records are a no-op.
func (s *Store) Delete(kind store.Kind, id string) error {
	if err := store.CheckKey(kind, id); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.kinds[kind], id)
	return nil
}

// List returns the kind's records ordered by ID ascending, verifying
// each at-rest checksum.
func (s *Store) List(kind store.Kind) ([]store.Item, error) {
	if !store.ValidKind(kind) {
		return nil, fmt.Errorf("%w: %q", store.ErrInvalidKind, kind)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.kinds[kind]
	items := make([]store.Item, 0, len(m))
	for id, rec := range m {
		if sha256.Sum256(rec.payload) != rec.sum {
			return nil, corruptErr(kind, id)
		}
		items = append(items, store.Item{ID: id, Payload: append([]byte(nil), rec.payload...)})
	}
	sortItems(items)
	return items, nil
}

// Corrupt flips bytes of the stored payload without updating the
// checksum — a test hook standing in for at-rest bit rot, so the
// contract suite can prove tampered records are refused. It reports
// whether the record existed.
func (s *Store) Corrupt(kind store.Kind, id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.kinds[kind][id]
	if !ok {
		return false
	}
	tampered := append([]byte(nil), rec.payload...)
	if len(tampered) == 0 {
		return false
	}
	tampered[len(tampered)/2] ^= 0xFF
	s.kinds[kind][id] = record{payload: tampered, sum: rec.sum}
	return true
}

// corruptErr labels a checksum mismatch with the failing record.
func corruptErr(kind store.Kind, id string) error {
	return fmt.Errorf("%w: %s/%s failed its at-rest checksum", store.ErrCorrupt, kind, id)
}

// sortItems orders a listing by ID ascending — the port's List
// contract.
func sortItems(items []store.Item) {
	sort.Slice(items, func(i, j int) bool { return items[i].ID < items[j].ID })
}
