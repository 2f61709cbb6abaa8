// Package contract exports the store port's behavioral contract as a
// reusable test suite. Every adapter package runs Run against its own
// constructor (see store/memory and store/fsjson); an adapter that
// passes is substitutable anywhere the service takes a store.Store.
// The suite is the proof behind the durability claim — CRUD round
// trips, List ordering, Delete idempotence, separate kinds, concurrent
// Save/Find under the race detector, corruption rejection, saves and
// deletes that survive a reopen, and save-then-reload bit-identity are
// asserted, not assumed.
package contract

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/responsible-data-science/rds/internal/store"
)

// Adapter binds one store implementation into the contract suite.
type Adapter struct {
	// Make returns a fresh, empty store. Required.
	Make func(t *testing.T) store.Store
	// Reopen simulates a process restart over the same durable medium:
	// it must return a store seeing the state s had. Adapters without
	// cross-process durability (memory) return s itself; the suite then
	// still asserts the reload-facing properties degenerate correctly.
	// Required.
	Reopen func(t *testing.T, s store.Store) store.Store
	// Corrupt tampers with the at-rest bytes of one record — flipping
	// bits, truncating a file — without going through the port, and
	// returns the store to read from afterwards (reopened if the
	// adapter caches). Required: every adapter must be able to detect
	// bit rot.
	Corrupt func(t *testing.T, s store.Store, kind store.Kind, id string) store.Store
}

// kind is the collection the suite exercises; adapters must accept any
// valid kind, not only the service's canonical three.
const kind = store.Kind("contract-widgets")

// payload renders a small distinguishable JSON document.
func payload(i int) []byte {
	return []byte(fmt.Sprintf(`{"n": %d, "body": "widget-%03d"}`, i, i))
}

// canon is the canonical form Save must normalize payloads to.
func canon(t *testing.T, p []byte) []byte {
	t.Helper()
	c, err := store.CanonicalJSON(p)
	if err != nil {
		t.Fatalf("canonicalizing test payload: %v", err)
	}
	return c
}

// Run executes the full contract against the adapter.
func Run(t *testing.T, a Adapter) {
	if a.Make == nil || a.Reopen == nil || a.Corrupt == nil {
		t.Fatal("contract: Adapter needs Make, Reopen, and Corrupt")
	}
	t.Run("SaveFindRoundTrip", func(t *testing.T) { testRoundTrip(t, a) })
	t.Run("FindMissing", func(t *testing.T) { testFindMissing(t, a) })
	t.Run("SaveOverwrites", func(t *testing.T) { testOverwrite(t, a) })
	t.Run("ListOrdering", func(t *testing.T) { testListOrdering(t, a) })
	t.Run("DeleteIdempotent", func(t *testing.T) { testDeleteIdempotent(t, a) })
	t.Run("KindsAreSeparate", func(t *testing.T) { testKindsSeparate(t, a) })
	t.Run("RejectsBadKeys", func(t *testing.T) { testBadKeys(t, a) })
	t.Run("RejectsInvalidJSON", func(t *testing.T) { testInvalidJSON(t, a) })
	t.Run("ConcurrentSaveFind", func(t *testing.T) { testConcurrent(t, a) })
	t.Run("CorruptionRejected", func(t *testing.T) { testCorruption(t, a) })
	t.Run("SaveSurvivesReopen", func(t *testing.T) { testReopen(t, a) })
	t.Run("DeleteSurvivesReopen", func(t *testing.T) { testDeleteReopen(t, a) })
	t.Run("SaveReloadBitIdentity", func(t *testing.T) { testReloadBitIdentity(t, a) })
}

func testRoundTrip(t *testing.T, a Adapter) {
	s := a.Make(t)
	// A formatted payload must come back canonicalized — bit-identical
	// across every later read.
	in := []byte("{\n  \"n\": 1,\n  \"body\": \"widget-001\"\n}")
	if err := s.Save(kind, "w1", in); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, ok, err := s.Find(kind, "w1")
	if err != nil || !ok {
		t.Fatalf("Find: ok=%v err=%v", ok, err)
	}
	want := canon(t, in)
	if !bytes.Equal(got, want) {
		t.Fatalf("Find returned %q, want canonical %q", got, want)
	}
	// The returned slice must be the caller's to mutate.
	for i := range got {
		got[i] = 'x'
	}
	again, _, err := s.Find(kind, "w1")
	if err != nil || !bytes.Equal(again, want) {
		t.Fatalf("store state changed after caller mutated a returned payload: %q err=%v", again, err)
	}
}

func testFindMissing(t *testing.T, a Adapter) {
	s := a.Make(t)
	got, ok, err := s.Find(kind, "nope")
	if err != nil || ok || got != nil {
		t.Fatalf("Find(missing) = (%q, %v, %v), want (nil, false, nil)", got, ok, err)
	}
}

func testOverwrite(t *testing.T, a Adapter) {
	s := a.Make(t)
	if err := s.Save(kind, "w1", payload(1)); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := s.Save(kind, "w1", payload(2)); err != nil {
		t.Fatalf("re-Save: %v", err)
	}
	got, ok, err := s.Find(kind, "w1")
	if err != nil || !ok || !bytes.Equal(got, canon(t, payload(2))) {
		t.Fatalf("Find after overwrite = (%q, %v, %v), want second payload", got, ok, err)
	}
	items, err := s.List(kind)
	if err != nil || len(items) != 1 {
		t.Fatalf("List after overwrite has %d items (err %v), want 1", len(items), err)
	}
}

func testListOrdering(t *testing.T, a Adapter) {
	s := a.Make(t)
	// Insert out of order; List must come back ID-ascending.
	for _, i := range []int{7, 1, 5, 3, 9} {
		if err := s.Save(kind, fmt.Sprintf("w%d", i), payload(i)); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	items, err := s.List(kind)
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	var ids []string
	for _, it := range items {
		ids = append(ids, it.ID)
	}
	want := []string{"w1", "w3", "w5", "w7", "w9"}
	if fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("List order %v, want %v", ids, want)
	}
	empty, err := s.List(store.Kind("contract-empty"))
	if err != nil || len(empty) != 0 {
		t.Fatalf("List of unknown kind = (%v, %v), want empty", empty, err)
	}
}

func testDeleteIdempotent(t *testing.T, a Adapter) {
	s := a.Make(t)
	if err := s.Save(kind, "w1", payload(1)); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := s.Delete(kind, "w1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, ok, err := s.Find(kind, "w1"); ok || err != nil {
		t.Fatalf("Find after Delete: ok=%v err=%v", ok, err)
	}
	// Deleting again — and deleting something never saved — is a no-op.
	if err := s.Delete(kind, "w1"); err != nil {
		t.Fatalf("second Delete: %v", err)
	}
	if err := s.Delete(kind, "never-existed"); err != nil {
		t.Fatalf("Delete(absent): %v", err)
	}
}

// testKindsSeparate saves one id under two kinds, as the service keys a
// monitor's spec and its baseline profile: each kind reads back its own
// payload, and deleting from one leaves the other.
func testKindsSeparate(t *testing.T, a Adapter) {
	s := a.Make(t)
	other := store.Kind("contract-gadgets")
	if err := s.Save(kind, "m1", payload(1)); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := s.Save(other, "m1", payload(2)); err != nil {
		t.Fatalf("Save: %v", err)
	}
	for k, want := range map[store.Kind][]byte{kind: payload(1), other: payload(2)} {
		got, ok, err := s.Find(k, "m1")
		if err != nil || !ok || !bytes.Equal(got, canon(t, want)) {
			t.Fatalf("Find(%s, m1) = (%q, %v, %v), want %q", k, got, ok, err, canon(t, want))
		}
	}
	if err := s.Delete(other, "m1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if got, ok, err := s.Find(kind, "m1"); err != nil || !ok || !bytes.Equal(got, canon(t, payload(1))) {
		t.Fatalf("Delete of another kind's record removed this one: (%q, %v, %v)", got, ok, err)
	}
	if items, err := s.List(other); err != nil || len(items) != 0 {
		t.Fatalf("List(%s) after Delete = (%v, %v), want empty", other, items, err)
	}
	if items, err := s.List(kind); err != nil || len(items) != 1 {
		t.Fatalf("List(%s) has %d items (err %v), want 1", kind, len(items), err)
	}
}

func testBadKeys(t *testing.T, a Adapter) {
	s := a.Make(t)
	bad := []struct {
		kind store.Kind
		id   string
	}{
		{kind, ""},
		{kind, ".hidden"},
		{kind, "../escape"},
		{kind, "a/b"},
		{kind, "null\x00byte"},
		{store.Kind(""), "w1"},
		{store.Kind("../up"), "w1"},
		{store.Kind("UPPER"), "w1"},
	}
	for _, c := range bad {
		if err := s.Save(c.kind, c.id, payload(1)); err == nil {
			t.Errorf("Save(%q, %q) accepted an unsafe key", c.kind, c.id)
		}
		if _, _, err := s.Find(c.kind, c.id); err == nil {
			t.Errorf("Find(%q, %q) accepted an unsafe key", c.kind, c.id)
		}
		if err := s.Delete(c.kind, c.id); err == nil {
			t.Errorf("Delete(%q, %q) accepted an unsafe key", c.kind, c.id)
		}
	}
}

func testInvalidJSON(t *testing.T, a Adapter) {
	s := a.Make(t)
	for _, p := range [][]byte{nil, []byte(""), []byte("{truncated"), []byte("not json at all")} {
		if err := s.Save(kind, "w1", p); err == nil {
			t.Errorf("Save accepted non-JSON payload %q", p)
		}
	}
	if _, ok, err := s.Find(kind, "w1"); ok || err != nil {
		t.Fatalf("rejected Save left state behind: ok=%v err=%v", ok, err)
	}
}

func testConcurrent(t *testing.T, a Adapter) {
	s := a.Make(t)
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-%03d", w, i)
				if err := s.Save(kind, id, payload(i)); err != nil {
					t.Errorf("concurrent Save %s: %v", id, err)
					return
				}
				if got, ok, err := s.Find(kind, id); err != nil || !ok || len(got) == 0 {
					t.Errorf("concurrent Find %s: ok=%v err=%v", id, ok, err)
					return
				}
				if _, err := s.List(kind); err != nil {
					t.Errorf("concurrent List: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	items, err := s.List(kind)
	if err != nil || len(items) != writers*perWriter {
		t.Fatalf("after concurrent writes List has %d items (err %v), want %d", len(items), err, writers*perWriter)
	}
}

func testCorruption(t *testing.T, a Adapter) {
	s := a.Make(t)
	if err := s.Save(kind, "w1", payload(1)); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := s.Save(kind, "w2", payload(2)); err != nil {
		t.Fatalf("Save: %v", err)
	}
	s = a.Corrupt(t, s, kind, "w1")
	if _, ok, err := s.Find(kind, "w1"); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("Find(corrupted) = (ok=%v, err=%v), want ErrCorrupt", ok, err)
	}
	if _, err := s.List(kind); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("List over a corrupt record = %v, want ErrCorrupt", err)
	}
	// Healthy records are still readable individually.
	if got, ok, err := s.Find(kind, "w2"); err != nil || !ok || !bytes.Equal(got, canon(t, payload(2))) {
		t.Fatalf("healthy record unreadable next to a corrupt one: ok=%v err=%v", ok, err)
	}
}

func testReopen(t *testing.T, a Adapter) {
	s := a.Make(t)
	if err := s.Save(kind, "w1", payload(1)); err != nil {
		t.Fatalf("Save: %v", err)
	}
	s = a.Reopen(t, s)
	got, ok, err := s.Find(kind, "w1")
	if err != nil || !ok || !bytes.Equal(got, canon(t, payload(1))) {
		t.Fatalf("Find after reopen = (%q, %v, %v)", got, ok, err)
	}
}

// testDeleteReopen checks that a deleted record stays deleted across a
// restart: a deleted monitor must not come back on the next boot.
func testDeleteReopen(t *testing.T, a Adapter) {
	s := a.Make(t)
	for _, id := range []string{"w1", "w2"} {
		if err := s.Save(kind, id, payload(1)); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	if err := s.Delete(kind, "w1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	s = a.Reopen(t, s)
	if got, ok, err := s.Find(kind, "w1"); err != nil || ok {
		t.Fatalf("Find(deleted) after reopen = (%q, %v, %v), want absent", got, ok, err)
	}
	items, err := s.List(kind)
	if err != nil || len(items) != 1 || items[0].ID != "w2" {
		t.Fatalf("List after reopen = (%v, %v), want only w2", items, err)
	}
}

// testReloadBitIdentity saves documents with awkward floats (1e-300,
// an integer beyond 2^53) and HTML characters, and checks that they
// list back in canonical form, bit for bit, before and after a reopen.
func testReloadBitIdentity(t *testing.T, a Adapter) {
	s := a.Make(t)
	var want []store.Item
	for i := 0; i < 20; i++ {
		doc, err := json.Marshal(map[string]any{
			"n":      i,
			"values": []float64{0.1 * float64(i), 1.0 / 3.0, 1e-300, 9007199254740993},
			"text":   fmt.Sprintf("<widget & %d>", i),
		})
		if err != nil {
			t.Fatalf("building payload: %v", err)
		}
		id := fmt.Sprintf("w%02d", i)
		if err := s.Save(kind, id, doc); err != nil {
			t.Fatalf("Save: %v", err)
		}
		want = append(want, store.Item{ID: id, Payload: canon(t, doc)})
	}
	check := func(label string, s store.Store) {
		items, err := s.List(kind)
		if err != nil {
			t.Fatalf("%s List: %v", label, err)
		}
		if len(items) != len(want) {
			t.Fatalf("%s List has %d items, want %d", label, len(items), len(want))
		}
		for i := range items {
			if items[i].ID != want[i].ID || !bytes.Equal(items[i].Payload, want[i].Payload) {
				t.Fatalf("%s item %d = (%s, %q), want (%s, %q)",
					label, i, items[i].ID, items[i].Payload, want[i].ID, want[i].Payload)
			}
		}
	}
	check("post-save", s)
	check("post-reload", a.Reopen(t, s))
}
