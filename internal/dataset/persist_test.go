package dataset

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/store"
	"github.com/responsible-data-science/rds/internal/store/memory"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// persistFrame builds a small distinct frame keyed by seed.
func persistFrame(t *testing.T, seed int64) *frame.Frame {
	t.Helper()
	vals := make([]int64, 8)
	for i := range vals {
		vals[i] = seed + int64(i)
	}
	f, err := frame.New(frame.NewInt64("v", vals))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestAttachStoreRoundTrip proves the core durability path: datasets
// put into a store-backed registry come back after a "restart" (a
// fresh registry attached to the same store) with the same ref, name,
// and bit-identical frame hash.
func TestAttachStoreRoundTrip(t *testing.T) {
	st := memory.New()
	r1 := NewRegistry(0)
	if err := r1.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	f := persistFrame(t, 100)
	meta, err := r1.PutAs(tenant.Default, "train.csv", f)
	if err != nil {
		t.Fatal(err)
	}

	r2 := NewRegistry(0)
	if err := r2.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	got, m2, ok := r2.ResolveAs(tenant.Default, meta.Ref)
	if !ok {
		t.Fatalf("dataset %s did not survive restart", meta.Ref)
	}
	if m2.Name != "train.csv" || m2.Rows != 8 {
		t.Fatalf("restored meta %+v, want name train.csv rows 8", m2)
	}
	if got.Hash() != f.Hash() {
		t.Fatalf("restored frame hash %s, want %s", got.Hash(), f.Hash())
	}
}

// TestDeleteRemovesDurableCopy proves a deleted dataset does not
// resurface on restart.
func TestDeleteRemovesDurableCopy(t *testing.T) {
	st := memory.New()
	r1 := NewRegistry(0)
	if err := r1.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	meta, err := r1.PutAs(tenant.Default, "d", persistFrame(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := r1.DeleteAs(tenant.Default, meta.Ref); !ok || err != nil {
		t.Fatalf("Delete: (%v, %v)", ok, err)
	}
	r2 := NewRegistry(0)
	if err := r2.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := r2.ResolveAs(tenant.Default, meta.Ref); ok {
		t.Fatal("deleted dataset resurfaced after restart")
	}
}

// TestEvictionRemovesDurableCopy proves the store mirrors the resident
// set under budget pressure: an evicted dataset's durable copy goes
// with it.
func TestEvictionRemovesDurableCopy(t *testing.T) {
	st := memory.New()
	small := persistFrame(t, 1)
	budget := 2*SizeOf(small) + SizeOf(small)/2 // room for two, not three
	r := NewRegistry(budget)
	if err := r.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	m1, err := r.PutAs(tenant.Default, "a", persistFrame(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.PutAs(tenant.Default, "b", persistFrame(t, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.PutAs(tenant.Default, "c", persistFrame(t, 2000)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := r.ResolveAs(tenant.Default, m1.Ref); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok, err := st.Find(store.KindDataset, m1.Ref); ok || err != nil {
		t.Fatalf("evicted dataset still persisted: ok=%v err=%v", ok, err)
	}
	if items, err := st.List(store.KindDataset); err != nil || len(items) != 2 {
		t.Fatalf("store holds %d datasets (err %v), want 2", len(items), err)
	}
}

// TestAttachStoreRefusesHashMismatch proves a persisted record whose
// frame no longer hashes to its key is refused at restore — the
// content hash doubles as an integrity check.
func TestAttachStoreRefusesHashMismatch(t *testing.T) {
	st := memory.New()
	var buf bytes.Buffer
	if err := persistFrame(t, 5).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(map[string]any{"name": "x", "frame": json.RawMessage(buf.Bytes())})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(store.KindDataset, "not-the-real-hash", payload); err != nil {
		t.Fatal(err)
	}
	err = NewRegistry(0).AttachStore(st)
	if !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), "not-the-real-hash") {
		t.Fatalf("AttachStore over mismatched hash: %v, want ErrCorrupt naming the record", err)
	}
}

// TestAttachStoreRefusesCorruptRecord proves a tampered record refuses
// the whole restore rather than silently dropping data.
func TestAttachStoreRefusesCorruptRecord(t *testing.T) {
	st := memory.New()
	r1 := NewRegistry(0)
	if err := r1.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	meta, err := r1.PutAs(tenant.Default, "d", persistFrame(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Corrupt(store.KindDataset, meta.Ref) {
		t.Fatal("Corrupt found no record")
	}
	if err := NewRegistry(0).AttachStore(st); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("AttachStore over corrupt record: %v, want ErrCorrupt", err)
	}
}

// TestAttachStoreShrunkBudget proves a dataset larger than the whole
// (shrunk) budget is dropped durably at restore, keeping the
// store-equals-resident-set invariant instead of carrying unreachable
// state forever.
func TestAttachStoreShrunkBudget(t *testing.T) {
	st := memory.New()
	r1 := NewRegistry(0)
	if err := r1.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	meta, err := r1.PutAs(tenant.Default, "big", persistFrame(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry(16) // far below the dataset's size
	if err := r2.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := r2.ResolveAs(tenant.Default, meta.Ref); ok {
		t.Fatal("over-budget dataset restored")
	}
	if items, err := st.List(store.KindDataset); err != nil || len(items) != 0 {
		t.Fatalf("over-budget dataset still persisted: (%v, %v)", items, err)
	}
}
