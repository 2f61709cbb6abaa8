// Package dataset implements the content-addressed dataset registry:
// load a dataset once, get back its content hash (frame.Hash) as a
// dataset_ref, and have every later audit or monitor registration
// resolve the resident frame by ref in O(1) instead of re-uploading and
// re-parsing the bytes. The registry is byte-budgeted — resident
// datasets are measured with SizeOf and the least recently used
// unpinned ones are evicted when a PutAs would exceed the budget — and
// pin-aware: the monitoring plane pins its baseline datasets so a
// standing monitor's 1M-row baseline can never be evicted underneath
// it.
//
// Because the ref IS the content hash, a resolved dataset needs no
// re-hash on the audit hot path: serve's report-cache key reuses the
// ref directly, which is what turns repeat-audit latency from
// O(dataset) parsing into an O(1) lookup (see BenchmarkRegistryResolve).
package dataset

import (
	"container/list"
	"errors"
	"fmt"
	"sync"

	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/store"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// DefaultBudgetBytes is the default registry byte budget: 256 MiB.
const DefaultBudgetBytes = 256 << 20

// ErrOverBudget is returned by PutAs when the dataset cannot be made
// resident: it is larger than the whole budget, or pinned datasets
// occupy too much of it. The HTTP layer maps it to 507.
var ErrOverBudget = errors.New("dataset: registry byte budget exceeded")

// ErrPinned is returned by Delete while monitors hold pins on the
// dataset. The HTTP layer maps it to 409.
var ErrPinned = errors.New("dataset: dataset is pinned")

// Meta describes one resident dataset, JSON-serializable for the HTTP
// API. Ref is the frame's content hash — the dataset_ref audit and
// monitor requests resolve by — and Tenant is the owning tenant:
// datasets are scoped, so the same content uploaded by two tenants is
// two entries, each charged to its owner's quota.
type Meta struct {
	Ref    string `json:"ref"`
	Tenant string `json:"tenant"`
	Name   string `json:"name"`
	Rows   int    `json:"rows"`
	Cols   int    `json:"cols"`
	Bytes  int64  `json:"bytes"`
	Pins   int    `json:"pins"`
	Hits   uint64 `json:"hits"`
}

// entry is the registry-internal state behind a Meta.
type entry struct {
	meta Meta
	data *frame.Frame
}

// refKey addresses one resident dataset: content hashes are scoped per
// tenant, so tenants can neither see nor unpin each other's refs.
type refKey struct {
	tenant string
	ref    string
}

// tenantUsage is one tenant's slice of the registry accounting.
type tenantUsage struct {
	resident int
	bytes    int64
}

// Registry is the byte-budgeted, content-addressed store of resident
// datasets with LRU eviction that skips pinned entries. Entries are
// tenant-scoped: every operation resolves within one tenant's
// namespace, the shared byte budget and LRU order span all tenants,
// and per-tenant quotas (bytes, count) bound each tenant's share when
// a quota source is attached. Safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	order  *list.List // front = most recently used; values are *entry
	byRef  map[refKey]*list.Element
	usage  map[string]*tenantUsage

	// quotas resolves a tenant's resource quotas; nil means unlimited.
	quotas func(string) tenant.Quotas

	// store, when non-nil, durably mirrors the resident set (see
	// AttachStore in persist.go).
	store store.Store

	hits, misses, evictions, persistErrors uint64
}

// NewRegistry creates an empty registry holding at most budgetBytes of
// resident dataset payload (DefaultBudgetBytes when <= 0).
func NewRegistry(budgetBytes int64) *Registry {
	if budgetBytes <= 0 {
		budgetBytes = DefaultBudgetBytes
	}
	return &Registry{
		budget: budgetBytes,
		order:  list.New(),
		byRef:  map[refKey]*list.Element{},
		usage:  map[string]*tenantUsage{},
	}
}

// Budget returns the registry's byte budget.
func (r *Registry) Budget() int64 { return r.budget }

// UseQuotas attaches the per-tenant quota source (typically
// (*tenant.Registry).Quotas). PutAs enforces MaxRegistryBytes and
// MaxDatasets against it; nil (the default) means no per-tenant bound.
func (r *Registry) UseQuotas(q func(string) tenant.Quotas) {
	r.mu.Lock()
	r.quotas = q
	r.mu.Unlock()
}

// usageLocked returns ten's accounting, creating it on first sight.
func (r *Registry) usageLocked(ten string) *tenantUsage {
	u := r.usage[ten]
	if u == nil {
		u = &tenantUsage{}
		r.usage[ten] = u
	}
	return u
}

// chargeLocked adjusts ten's accounting by one entry of size bytes
// (negative on removal), dropping empty tenants from the map.
func (r *Registry) chargeLocked(ten string, entries int, size int64) {
	u := r.usageLocked(ten)
	u.resident += entries
	u.bytes += size
	if u.resident <= 0 && u.bytes <= 0 {
		delete(r.usage, ten)
	}
}

// PutAs makes f resident for ten under its content hash and returns
// its Meta; the returned Ref is the dataset_ref clients audit by.
// Uploading bytes the tenant already has resident is idempotent: the
// existing entry is refreshed (most recently used) and returned,
// keeping its first name. The tenant's quotas (bytes, dataset count)
// are checked first — a violation is tenant.ErrQuota (HTTP 429), the
// tenant's own budget. Then the shared byte budget applies: least
// recently used unpinned entries of any tenant are evicted until the
// dataset fits; ErrOverBudget (HTTP 507) reports one that cannot fit
// even then.
func (r *Registry) PutAs(ten, name string, f *frame.Frame) (Meta, error) {
	if f == nil || f.NumRows() == 0 {
		return Meta{}, fmt.Errorf("dataset: Put needs a non-empty dataset")
	}
	ten, err := tenant.Normalize(ten)
	if err != nil {
		return Meta{}, err
	}
	// Hash and measure outside the lock: both are O(dataset) and must
	// not serialize against hot resolves.
	ref := f.Hash()
	size := SizeOf(f)

	r.mu.Lock()
	defer r.mu.Unlock()
	key := refKey{ten, ref}
	if el, ok := r.byRef[key]; ok {
		r.order.MoveToFront(el)
		return el.Value.(*entry).meta, nil
	}
	if r.quotas != nil {
		quo := r.quotas(ten)
		u := r.usageLocked(ten)
		if quo.MaxDatasets > 0 && u.resident >= quo.MaxDatasets {
			return Meta{}, fmt.Errorf("%w: tenant %q has %d of %d datasets resident",
				tenant.ErrQuota, ten, u.resident, quo.MaxDatasets)
		}
		if quo.MaxRegistryBytes > 0 && u.bytes+size > quo.MaxRegistryBytes {
			return Meta{}, fmt.Errorf("%w: tenant %q would hold %d of %d registry bytes",
				tenant.ErrQuota, ten, u.bytes+size, quo.MaxRegistryBytes)
		}
	}
	if size > r.budget {
		return Meta{}, fmt.Errorf("%w: dataset is %d bytes, budget %d", ErrOverBudget, size, r.budget)
	}
	for r.bytes+size > r.budget {
		if !r.evictOldestUnpinned() {
			return Meta{}, fmt.Errorf("%w: %d bytes pinned, dataset needs %d of %d",
				ErrOverBudget, r.bytes, size, r.budget)
		}
	}
	e := &entry{
		meta: Meta{
			Ref:    ref,
			Tenant: ten,
			Name:   name,
			Rows:   f.NumRows(),
			Cols:   f.NumCols(),
			Bytes:  size,
		},
		data: f,
	}
	if r.store != nil {
		// Durability before visibility: a Put the caller saw succeed
		// must survive a restart, so the store write happens first and
		// a failure fails the Put. Encoding under the lock keeps the
		// store ordered with the resident set; uploads are already
		// O(dataset) so the extra pass does not change their shape.
		if err := r.saveLocked(e); err != nil {
			return Meta{}, fmt.Errorf("dataset: persisting %q: %w", ref, err)
		}
	}
	r.byRef[key] = r.order.PushFront(e)
	r.bytes += size
	r.chargeLocked(ten, 1, size)
	return e.meta, nil
}

// evictOldestUnpinned drops the least recently used unpinned entry of
// any tenant, reporting whether one existed; callers hold r.mu.
func (r *Registry) evictOldestUnpinned() bool {
	for el := r.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		if e.meta.Pins > 0 {
			continue
		}
		r.order.Remove(el)
		delete(r.byRef, refKey{e.meta.Tenant, e.meta.Ref})
		r.bytes -= e.meta.Bytes
		r.chargeLocked(e.meta.Tenant, -1, -e.meta.Bytes)
		r.evictions++
		r.dropStoredLocked(e.meta.Tenant, e.meta.Ref)
		return true
	}
	return false
}

// ResolveAs returns ten's resident dataset for ref, marking it most
// recently used. The bool reports a hit; misses — including another
// tenant's ref, indistinguishable from absent — count toward the
// dataset_misses gauge.
func (r *Registry) ResolveAs(ten, ref string) (*frame.Frame, Meta, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.byRef[refKey{ten, ref}]
	if !ok {
		r.misses++
		return nil, Meta{}, false
	}
	r.order.MoveToFront(el)
	e := el.Value.(*entry)
	e.meta.Hits++
	r.hits++
	return e.data, e.meta, true
}

// PinAs resolves ten's ref and takes one pin on it, shielding it from
// eviction and deletion until a matching UnpinAs. Monitors pin their
// baselines for their whole lifetime. The bool reports whether ref
// resolved within ten's namespace.
func (r *Registry) PinAs(ten, ref string) (*frame.Frame, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.byRef[refKey{ten, ref}]
	if !ok {
		r.misses++
		return nil, false
	}
	r.order.MoveToFront(el)
	e := el.Value.(*entry)
	e.meta.Pins++
	e.meta.Hits++
	r.hits++
	return e.data, true
}

// UnpinAs releases one pin taken by PinAs. Unknown refs are a no-op
// (the registry never evicts pinned entries, so an unknown ref means
// the caller already released it).
func (r *Registry) UnpinAs(ten, ref string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.byRef[refKey{ten, ref}]; ok {
		if e := el.Value.(*entry); e.meta.Pins > 0 {
			e.meta.Pins--
		}
	}
}

// GetAs returns ten's Meta for ref without touching recency or
// counters.
func (r *Registry) GetAs(ten, ref string) (Meta, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.byRef[refKey{ten, ref}]
	if !ok {
		return Meta{}, false
	}
	return el.Value.(*entry).meta, true
}

// DeleteAs evicts ten's dataset for ref, reporting whether it existed
// in ten's namespace — another tenant's ref reads as absent, so
// tenants cannot delete each other's data. Pinned datasets answer
// ErrPinned: a monitor's baseline cannot be deleted out from under it.
func (r *Registry) DeleteAs(ten, ref string) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := refKey{ten, ref}
	el, ok := r.byRef[key]
	if !ok {
		return false, nil
	}
	e := el.Value.(*entry)
	if e.meta.Pins > 0 {
		return false, fmt.Errorf("%w: %q has %d pins", ErrPinned, ref, e.meta.Pins)
	}
	if r.store != nil {
		// Durable copy goes first: a Delete that reported success must
		// not resurface the dataset on restart.
		if err := r.store.Delete(store.KindDataset, storeID(ten, ref)); err != nil {
			return false, fmt.Errorf("dataset: deleting persisted %q: %w", ref, err)
		}
	}
	r.order.Remove(el)
	delete(r.byRef, key)
	r.bytes -= e.meta.Bytes
	r.chargeLocked(ten, -1, -e.meta.Bytes)
	return true, nil
}

// ListAs returns ten's resident datasets, most recently used first.
// The listing is scoped: no tenant can enumerate another's refs.
func (r *Registry) ListAs(ten string) []Meta {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := []Meta{}
	for el := r.order.Front(); el != nil; el = el.Next() {
		if m := el.Value.(*entry).meta; m.Tenant == ten {
			out = append(out, m)
		}
	}
	return out
}

// Snapshot is the registry's JSON gauge set, merged into GET /metrics
// under the "datasets" key.
type Snapshot struct {
	Resident    int    `json:"datasets_resident"`
	Pinned      int    `json:"datasets_pinned"`
	Bytes       int64  `json:"dataset_bytes"`
	BudgetBytes int64  `json:"dataset_budget_bytes"`
	Hits        uint64 `json:"dataset_hits"`
	Misses      uint64 `json:"dataset_misses"`
	Evictions   uint64 `json:"dataset_evictions"`
	// PersistErrors counts best-effort store mirror operations that
	// failed (eviction-path deletes); PutAs/DeleteAs persist failures are
	// returned to the caller instead of counted here.
	PersistErrors uint64 `json:"dataset_persist_errors"`
	// Tenants is each tenant's slice of the registry accounting, keyed
	// by tenant id; tenants with nothing resident are omitted.
	Tenants map[string]TenantUsage `json:"tenants,omitempty"`
}

// TenantUsage is one tenant's registry footprint.
type TenantUsage struct {
	// Resident is the tenant's resident dataset count.
	Resident int `json:"resident"`
	// Bytes is the tenant's resident payload bytes.
	Bytes int64 `json:"bytes"`
}

// Metrics snapshots the registry gauges.
func (r *Registry) Metrics() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	pinned := 0
	for el := r.order.Front(); el != nil; el = el.Next() {
		if el.Value.(*entry).meta.Pins > 0 {
			pinned++
		}
	}
	s := Snapshot{
		Resident:      r.order.Len(),
		Pinned:        pinned,
		Bytes:         r.bytes,
		BudgetBytes:   r.budget,
		Hits:          r.hits,
		Misses:        r.misses,
		Evictions:     r.evictions,
		PersistErrors: r.persistErrors,
	}
	if len(r.usage) > 0 {
		s.Tenants = make(map[string]TenantUsage, len(r.usage))
		for id, u := range r.usage {
			s.Tenants[id] = TenantUsage{Resident: u.resident, Bytes: u.bytes}
		}
	}
	return s
}

// SizeOf estimates a frame's resident heap footprint in bytes: payload
// slices by dtype (8 bytes per numeric, 1 per bool, string header plus
// text per string cell — or 4 bytes per row plus one shared header+text
// per dictionary level for dict-encoded columns), a null bitmap when
// present, and a fixed per-column overhead. The budget arithmetic only
// needs relative accuracy, so the estimate errs simple rather than
// exact; TestSizeOfTracksMeasuredBytes pins it against measured live
// heap within 10%.
func SizeOf(f *frame.Frame) int64 {
	const colOverhead = 96 // Series struct + name + slice headers
	var n int64
	for j := 0; j < f.NumCols(); j++ {
		c := f.ColAt(j)
		n += colOverhead + int64(len(c.Name()))
		rows := int64(c.Len())
		switch c.DType() {
		case frame.Float64, frame.Int64:
			n += 8 * rows
		case frame.Bool:
			n += rows
		case frame.String:
			if codes, dict, ok := c.DictView(); ok {
				n += 4 * int64(len(codes))
				for _, v := range dict {
					n += 16 + int64(len(v))
				}
			} else {
				n += 16 * rows
				for i := 0; i < c.Len(); i++ {
					n += int64(len(c.Str(i)))
				}
			}
		}
		if c.NullCount() > 0 {
			n += rows
		}
	}
	return n
}
