// Package store defines the durable-state port behind which every
// load-bearing piece of service state lives: monitor specs, pinned
// baseline profiles, dataset-registry entries, pipeline run records and
// tenant quota overrides. The serving planes talk to the small Store
// interface only. rds-serve attaches one only under -state-dir:
// store/fsjson persists to that directory with crash-safe writes, so a
// standing monitor survives a process restart. Without the flag no
// store is attached and nothing is encoded for persistence.
// store/memory is the in-process store tests use.
//
// The port is deliberately narrow, in the style of a CRUD repository
// port: records are opaque JSON payloads addressed by (Kind, ID), and
// the planes Save, Find, Delete and List them. Payloads are
// canonicalized (compact JSON) on Save and checksummed at rest: storage
// is untrusted by design, so a truncated or tampered record is refused
// on read with ErrCorrupt rather than silently loaded — the same
// posture as provenance.ReadAuditJSON's hash-chain check.
//
// internal/store/contract exports the behavioral contract as a
// table-driven test suite; every adapter must pass it (CRUD round
// trips, List ordering, Delete idempotence, concurrent Save/Find,
// corruption rejection, save-then-reload bit-identity). New adapters
// start by running the contract, not by re-reading this comment.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Kind names one record collection. Adapters accept any ValidKind, but
// the service uses the canonical collections below.
type Kind string

// Canonical record collections.
const (
	// KindMonitor holds monitor spec records keyed by monitor id.
	KindMonitor Kind = "monitors"
	// KindProfile holds pinned baseline-profile records keyed by the
	// owning monitor's id.
	KindProfile Kind = "profiles"
	// KindDataset holds dataset-registry entries keyed by content hash
	// (the dataset_ref), prefixed "tenant." for non-default tenants.
	KindDataset Kind = "datasets"
	// KindTenant holds per-tenant quota-override records keyed by
	// tenant id. Restored first at boot — datasets and monitors restore
	// into a world where every tenant's quotas are already known.
	KindTenant Kind = "tenants"
	// KindPipelines holds staged-pipeline run records keyed by pipeline
	// id: the submitted spec plus every completed stage's result — the
	// irreducible state from which an interrupted run resumes at its
	// last completed stage after a restart.
	KindPipelines Kind = "pipelines"
)

// ErrCorrupt marks a record whose at-rest bytes fail validation — a
// truncated file, an invalid envelope, or a checksum mismatch. Readers
// must treat it as "refuse to load", never as "absent".
var ErrCorrupt = errors.New("store: corrupt record")

// ErrInvalidID rejects record ids that are unsafe as storage keys (see
// ValidID).
var ErrInvalidID = errors.New("store: invalid record id")

// ErrInvalidKind rejects collection names that are unsafe as storage
// keys (see ValidKind).
var ErrInvalidKind = errors.New("store: invalid record kind")

// Item is one record in a listing: its id and canonical JSON payload.
type Item struct {
	// ID is the record key within its Kind.
	ID string `json:"id"`
	// Payload is the record's canonical JSON document.
	Payload json.RawMessage `json:"payload"`
}

// Store is the repository port. Implementations must be safe for
// concurrent use. Payloads are JSON documents; Save canonicalizes them
// (CanonicalJSON), Find and List return the canonical bytes, so a
// payload read back after any number of save/reload cycles is
// bit-identical to the canonical form of what was saved.
type Store interface {
	// Save upserts one record. The payload must be valid JSON.
	Save(kind Kind, id string, payload []byte) error
	// Find returns the record's canonical payload. ok is false — with a
	// nil error — when the record does not exist; a corrupt record
	// returns ErrCorrupt, never (nil, false, nil).
	Find(kind Kind, id string) (payload []byte, ok bool, err error)
	// Delete removes one record. Deleting an absent record is a no-op:
	// Delete is idempotent.
	Delete(kind Kind, id string) error
	// List returns every record of the kind ordered by ID ascending. An
	// unknown (but valid) kind lists empty.
	List(kind Kind) ([]Item, error)
}

// ValidKind reports whether a collection name is safe as a storage key
// for every adapter: lowercase ASCII letters, digits, '-' or '_',
// starting with a letter.
func ValidKind(k Kind) bool {
	if len(k) == 0 || len(k) > 64 {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9' && i > 0:
		case (c == '-' || c == '_') && i > 0:
		default:
			return false
		}
	}
	return true
}

// ValidID reports whether a record id is safe as a storage key for
// every adapter: ASCII letters, digits, '.', '-' or '_', not starting
// with '.', at most 128 bytes. Monitor ids ("mon-000001") and frame
// content hashes (hex) both qualify.
func ValidID(id string) bool {
	if len(id) == 0 || len(id) > 128 || id[0] == '.' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
		case c == '.' || c == '-' || c == '_':
		default:
			return false
		}
	}
	return true
}

// CheckKey validates a (kind, id) pair, wrapping the offending value in
// the error so adapters report rejections uniformly.
func CheckKey(kind Kind, id string) error {
	if !ValidKind(kind) {
		return fmt.Errorf("%w: %q", ErrInvalidKind, kind)
	}
	if !ValidID(id) {
		return fmt.Errorf("%w: %q", ErrInvalidID, id)
	}
	return nil
}

// CanonicalJSON validates payload and returns its canonical form — the
// compact, HTML-safe encoding json.Marshal produces — so checksums and
// bit-identity assertions are stable across save/load cycles no matter
// how the caller formatted the document.
func CanonicalJSON(payload []byte) ([]byte, error) {
	// Marshal validates a RawMessage as it compacts it, in one pass; a
	// nil one alone would pass, as "null".
	if len(payload) == 0 {
		return nil, fmt.Errorf("store: payload is not valid JSON: empty")
	}
	canon, err := json.Marshal(json.RawMessage(payload))
	if err != nil {
		return nil, fmt.Errorf("store: payload is not valid JSON: %w", err)
	}
	return canon, nil
}
