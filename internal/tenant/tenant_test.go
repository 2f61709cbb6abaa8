package tenant

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/responsible-data-science/rds/internal/store"
	"github.com/responsible-data-science/rds/internal/store/memory"
)

func TestValidID(t *testing.T) {
	valid := []string{"a", "default", "acme-corp", "t_1", "0abc", strings.Repeat("x", MaxIDLen)}
	for _, id := range valid {
		if !ValidID(id) {
			t.Errorf("ValidID(%q) = false, want true", id)
		}
	}
	invalid := []string{"", "-lead", "_lead", "UPPER", "has.dot", "sp ace", "h√©", strings.Repeat("x", MaxIDLen+1)}
	for _, id := range invalid {
		if ValidID(id) {
			t.Errorf("ValidID(%q) = true, want false", id)
		}
	}
}

func TestNormalize(t *testing.T) {
	if got, err := Normalize(""); err != nil || got != Default {
		t.Fatalf("Normalize(\"\") = %q, %v; want %q, nil", got, err, Default)
	}
	if got, err := Normalize("acme"); err != nil || got != "acme" {
		t.Fatalf("Normalize(acme) = %q, %v", got, err)
	}
	if _, err := Normalize("Bad.Tenant"); !errors.Is(err, ErrInvalidID) {
		t.Fatalf("Normalize(Bad.Tenant) err = %v, want ErrInvalidID", err)
	}
}

func TestContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if id, ok := FromContext(ctx); ok || id != "" {
		t.Fatalf("FromContext(empty) = %q, %v; want \"\", false", id, ok)
	}
	ctx = NewContext(ctx, "acme")
	if id, ok := FromContext(ctx); !ok || id != "acme" {
		t.Fatalf("FromContext = %q, %v; want acme, true", id, ok)
	}
}

// TestOf checks the one identity rule: the edge's validated id when
// the request carried one, the default tenant otherwise.
func TestOf(t *testing.T) {
	if got := Of(context.Background()); got != Default {
		t.Fatalf("Of(no id) = %q, want %q", got, Default)
	}
	if got := Of(NewContext(context.Background(), "acme")); got != "acme" {
		t.Fatalf("Of(acme) = %q, want acme", got)
	}
}

func TestQuotasEffective(t *testing.T) {
	var q Quotas
	if q.EffectiveWeight() != 1 {
		t.Fatalf("zero EffectiveWeight = %d, want 1", q.EffectiveWeight())
	}
	if q.EffectiveBurst() != 1 {
		t.Fatalf("zero EffectiveBurst = %v, want 1", q.EffectiveBurst())
	}
	q = Quotas{Weight: 3, RatePerSec: 5}
	if q.EffectiveWeight() != 3 || q.EffectiveBurst() != 5 {
		t.Fatalf("EffectiveWeight/Burst = %d/%v, want 3/5", q.EffectiveWeight(), q.EffectiveBurst())
	}
	q = Quotas{RatePerSec: 5, Burst: 2}
	if q.EffectiveBurst() != 2 {
		t.Fatalf("explicit Burst not honored: %v", q.EffectiveBurst())
	}
	if err := (Quotas{Weight: -1}).Validate(); err == nil {
		t.Fatal("negative weight validated")
	}
	if err := (Quotas{}).Validate(); err != nil {
		t.Fatalf("zero quotas rejected: %v", err)
	}
}

func TestRegistryOverrides(t *testing.T) {
	r := NewRegistry(Quotas{MaxDatasets: 4})
	if got := r.Quotas("unknown"); got.MaxDatasets != 4 {
		t.Fatalf("unknown tenant quotas = %+v, want defaults", got)
	}
	if err := r.Set("acme", Quotas{MaxDatasets: 1, Weight: 2}); err != nil {
		t.Fatal(err)
	}
	if got := r.Quotas("acme"); got.MaxDatasets != 1 || got.Weight != 2 {
		t.Fatalf("override not applied: %+v", got)
	}
	if err := r.Set("Bad.Id", Quotas{}); !errors.Is(err, ErrInvalidID) {
		t.Fatalf("Set(Bad.Id) err = %v", err)
	}
	if err := r.Set("acme", Quotas{Burst: -1}); err == nil {
		t.Fatal("negative quotas accepted")
	}
	list := r.List()
	if len(list) != 1 || list[0].ID != "acme" || !list[0].Override {
		t.Fatalf("List = %+v", list)
	}
	if err := r.Remove("acme"); err != nil {
		t.Fatal(err)
	}
	if got := r.Quotas("acme"); got.MaxDatasets != 4 {
		t.Fatalf("Remove did not revert to defaults: %+v", got)
	}
	// Removing an absent override is a no-op.
	if err := r.Remove("ghost"); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryPersistence(t *testing.T) {
	st := memory.New()

	r := NewRegistry(Quotas{})
	if err := r.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	if err := r.Set("acme", Quotas{Weight: 2, MaxMonitors: 3}); err != nil {
		t.Fatal(err)
	}
	if err := r.Set("beta", Quotas{RatePerSec: 1.5}); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove("beta"); err != nil {
		t.Fatal(err)
	}

	// A fresh registry over the same store restores the surviving override.
	r2 := NewRegistry(Quotas{})
	if err := r2.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	if got := r2.Quotas("acme"); got.Weight != 2 || got.MaxMonitors != 3 {
		t.Fatalf("restored quotas = %+v", got)
	}
	if got := r2.Quotas("beta"); got != (Quotas{}) {
		t.Fatalf("removed override restored: %+v", got)
	}
}

func TestRegistryRestoreRefusesCorrupt(t *testing.T) {
	st := memory.New()
	if err := st.Save(store.KindTenant, "acme", []byte(`{"weight":"not-a-number"}`)); err != nil {
		t.Fatal(err)
	}
	if err := NewRegistry(Quotas{}).AttachStore(st); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("AttachStore err = %v, want ErrCorrupt", err)
	}

	st2 := memory.New()
	if err := st2.Save(store.KindTenant, "Not-Valid-Tenant", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := NewRegistry(Quotas{}).AttachStore(st2); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("AttachStore bad-id err = %v, want ErrCorrupt", err)
	}
}

// failingStore errors on every mutation and listing so the registry's
// storage-failure paths are pinned: a quota the store refused must not
// take effect in memory.
type failingStore struct{ store.Store }

func (failingStore) Save(store.Kind, string, []byte) error { return errors.New("disk full") }
func (failingStore) Delete(store.Kind, string) error       { return errors.New("disk full") }
func (failingStore) List(store.Kind) ([]store.Item, error) { return nil, errors.New("disk gone") }

func TestRegistryStoreFailures(t *testing.T) {
	if err := NewRegistry(Quotas{}).AttachStore(failingStore{}); err == nil {
		t.Fatal("AttachStore over a failing store should refuse")
	}

	// Attach a healthy store first, then swap in the failing one so
	// only the mutation paths break.
	r := NewRegistry(Quotas{})
	st := memory.New()
	if err := r.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	r.store = failingStore{}
	if err := r.Set("acme", Quotas{Weight: 2}); err == nil {
		t.Fatal("Set should surface the store failure")
	}
	if got := r.Quotas("acme"); got != (Quotas{}) {
		t.Fatalf("rejected Set took effect: %+v", got)
	}
	if err := r.Remove("acme"); err == nil {
		t.Fatal("Remove should surface the store failure")
	}

	// A restored record with negative fields is corrupt state, not a
	// silently-clamped quota.
	st2 := memory.New()
	if err := st2.Save(store.KindTenant, "acme", []byte(`{"weight":-1}`)); err != nil {
		t.Fatal(err)
	}
	if err := NewRegistry(Quotas{}).AttachStore(st2); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("AttachStore negative-quota err = %v, want ErrCorrupt", err)
	}
}
