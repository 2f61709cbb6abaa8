// Package tenant makes the client a first-class concept in every plane
// of the audit service. A tenant id arrives on each HTTP request in
// the X-RDS-Tenant header, is validated once at the edge, and is
// threaded via context through admission control
// (per-tenant queues and token buckets in internal/serve), resource
// quotas (dataset-registry bytes and counts, monitor counts), durable
// ownership (every persisted dataset and monitor records its owner),
// and observability (per-tenant /metrics slices and the
// /v1/tenants/{id}/report responsibility roll-up in internal/report).
//
// The package itself is deliberately small: id validation, the context
// plumbing, the Quotas vocabulary shared by all planes, and a Registry
// of per-tenant quota overrides persisted through the storage port
// (store.KindTenant). Usage accounting lives in the planes that own the
// resources; this package only says who may use how much.
package tenant

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/responsible-data-science/rds/internal/store"
)

// Default is the tenant every request without an explicit id runs as —
// single-tenant deployments never need to name a tenant at all.
const Default = "default"

// MaxIDLen bounds a tenant id. Ids are embedded in storage keys
// ("tenant.ref" for dataset records), so the bound keeps composite keys
// within store.ValidID's 128-byte limit.
const MaxIDLen = 40

// ErrQuota marks an admission or resource request that exceeds the
// tenant's configured quota. The HTTP layer maps it to 429: the tenant
// is over its own budget while the service has capacity to spare.
var ErrQuota = errors.New("tenant: quota exceeded")

// ErrInvalidID rejects tenant ids that are unsafe as storage-key or
// header material (see ValidID).
var ErrInvalidID = errors.New("tenant: invalid tenant id")

// ErrInvalidQuota rejects malformed quota configurations (negative
// fields). The HTTP layer maps it to 400, against the 500 a storage
// failure answers.
var ErrInvalidQuota = errors.New("tenant: invalid quotas")

// ValidID reports whether id is a well-formed tenant id: lowercase
// ASCII letters, digits, '-' or '_', starting with a letter or digit,
// 1..MaxIDLen bytes. Dots are excluded on purpose — "tenant.ref"
// composite storage keys split on the first dot.
func ValidID(id string) bool {
	if len(id) == 0 || len(id) > MaxIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9':
		case (c == '-' || c == '_') && i > 0:
		default:
			return false
		}
	}
	return true
}

// Normalize maps an optional wire-level tenant id to its canonical
// form: empty selects Default, anything else must pass ValidID.
func Normalize(id string) (string, error) {
	if id == "" {
		return Default, nil
	}
	if !ValidID(id) {
		return "", fmt.Errorf("%w: %q (want [a-z0-9][a-z0-9_-]*, at most %d bytes)", ErrInvalidID, id, MaxIDLen)
	}
	return id, nil
}

// ctxKey is the private context key carrying the request's tenant id.
type ctxKey struct{}

// NewContext returns ctx carrying an explicit, already-validated
// tenant id. The HTTP edge (httpx.Router) calls it once per request;
// every plane downstream reads Of.
func NewContext(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

// FromContext returns the tenant id carried by ctx and whether one was
// explicitly set. Only the operator view of /v1/tenants tells a
// header-less request apart; every other caller wants Of.
func FromContext(ctx context.Context) (string, bool) {
	id, ok := ctx.Value(ctxKey{}).(string)
	return id, ok
}

// Of returns the tenant a request runs as: the id the edge validated
// from the X-RDS-Tenant header, or Default for a request without one.
// It is the only way a data plane learns who is asking.
func Of(ctx context.Context) string {
	if id, ok := FromContext(ctx); ok {
		return id
	}
	return Default
}

// Quotas is the per-tenant resource vocabulary every plane enforces.
// The zero value of each field means "no limit" (and weight 1), so the
// zero Quotas reproduces the historical single-tenant behavior exactly.
type Quotas struct {
	// Weight is the tenant's share in the engine's weighted-fair
	// dequeue (deficit round-robin). 0 means 1.
	Weight int `json:"weight,omitempty"`
	// RatePerSec and Burst parameterize the tenant's token-bucket
	// admission: at most Burst queued submissions instantaneously and
	// RatePerSec sustained. RatePerSec 0 disables the bucket.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket capacity (default: max(1, ceil(RatePerSec))).
	Burst int `json:"burst,omitempty"`
	// MaxQueue bounds the tenant's queued (not yet running) jobs; 0
	// falls back to the engine's aggregate queue capacity.
	MaxQueue int `json:"max_queue,omitempty"`
	// MaxRegistryBytes bounds the tenant's resident dataset bytes in
	// the dataset registry (0 = only the registry-wide budget applies).
	MaxRegistryBytes int64 `json:"max_registry_bytes,omitempty"`
	// MaxDatasets bounds the tenant's resident dataset count.
	MaxDatasets int `json:"max_datasets,omitempty"`
	// MaxMonitors bounds the tenant's registered monitor count.
	MaxMonitors int `json:"max_monitors,omitempty"`
	// MaxPipelines bounds the tenant's live (unfinished) staged
	// pipeline runs.
	MaxPipelines int `json:"max_pipelines,omitempty"`
}

// EffectiveWeight returns the DRR weight, mapping 0 (and negatives) to 1.
func (q Quotas) EffectiveWeight() int {
	if q.Weight <= 0 {
		return 1
	}
	return q.Weight
}

// EffectiveBurst returns the token-bucket capacity implied by the
// quotas: Burst when set, else at least one token's worth of the rate.
func (q Quotas) EffectiveBurst() float64 {
	if q.Burst > 0 {
		return float64(q.Burst)
	}
	if q.RatePerSec > 1 {
		return q.RatePerSec
	}
	return 1
}

// Validate rejects quota configurations with negative fields — zero
// (unlimited) is the floor for every knob.
func (q Quotas) Validate() error {
	if q.Weight < 0 || q.RatePerSec < 0 || q.Burst < 0 || q.MaxQueue < 0 ||
		q.MaxRegistryBytes < 0 || q.MaxDatasets < 0 || q.MaxMonitors < 0 ||
		q.MaxPipelines < 0 {
		return fmt.Errorf("%w: fields must be non-negative", ErrInvalidQuota)
	}
	return nil
}

// Info is one tenant's quota listing for the /v1/tenants API: its id,
// effective quotas, and whether they are an explicit override or the
// service defaults.
type Info struct {
	ID       string `json:"id"`
	Quotas   Quotas `json:"quotas"`
	Override bool   `json:"override"`
}

// Registry holds the service defaults plus per-tenant quota overrides,
// durably mirrored through the storage port when a store is attached.
// It is the quota source of truth every plane consults; it does no
// usage accounting itself. Safe for concurrent use.
type Registry struct {
	mu        sync.Mutex
	defaults  Quotas
	overrides map[string]Quotas
	store     store.Store
}

// NewRegistry creates a registry applying defaults to every tenant
// without an explicit override.
func NewRegistry(defaults Quotas) *Registry {
	return &Registry{defaults: defaults, overrides: map[string]Quotas{}}
}

// Defaults returns the service-wide default quotas.
func (r *Registry) Defaults() Quotas {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.defaults
}

// Quotas returns the effective quotas for id: its override when one is
// set, the service defaults otherwise. Unknown tenants are first-class
// — every valid id has quotas.
func (r *Registry) Quotas(id string) Quotas {
	r.mu.Lock()
	defer r.mu.Unlock()
	if q, ok := r.overrides[id]; ok {
		return q
	}
	return r.defaults
}

// Set installs a quota override for id, persisting it durably before
// it takes effect when a store is attached — a quota the caller saw
// accepted must survive a restart.
func (r *Registry) Set(id string, q Quotas) error {
	id, err := Normalize(id)
	if err != nil {
		return err
	}
	if err := q.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.store != nil {
		payload, err := json.Marshal(q)
		if err != nil {
			return err
		}
		if err := r.store.Save(store.KindTenant, id, payload); err != nil {
			return fmt.Errorf("tenant: persisting quotas for %q: %w", id, err)
		}
	}
	r.overrides[id] = q
	return nil
}

// Remove drops id's override, reverting it to the defaults (durably
// when a store is attached). Removing an absent override is a no-op.
func (r *Registry) Remove(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.store != nil {
		if err := r.store.Delete(store.KindTenant, id); err != nil {
			return fmt.Errorf("tenant: removing quotas for %q: %w", id, err)
		}
	}
	delete(r.overrides, id)
	return nil
}

// List returns every tenant with an explicit override, ordered by id.
func (r *Registry) List() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, 0, len(r.overrides))
	for id, q := range r.overrides {
		out = append(out, Info{ID: id, Quotas: q, Override: true})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AttachStore restores every persisted quota override into the
// registry and mirrors later Set/Remove calls into st. Call it once at
// boot, before the dataset and monitor registries restore — they
// enforce quotas this restore installs. A record that fails to decode
// or carries an invalid id refuses the boot (corrupt state is named,
// not skipped), matching the dataset and monitor restore posture.
func (r *Registry) AttachStore(st store.Store) error {
	items, err := st.List(store.KindTenant)
	if err != nil {
		return fmt.Errorf("tenant: restoring quotas: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store = st
	for _, it := range items {
		if !ValidID(it.ID) {
			return fmt.Errorf("tenant: restoring %q: %w: bad tenant id", it.ID, store.ErrCorrupt)
		}
		var q Quotas
		if err := json.Unmarshal(it.Payload, &q); err != nil {
			return fmt.Errorf("tenant: restoring %q: %w (%v)", it.ID, store.ErrCorrupt, err)
		}
		if err := q.Validate(); err != nil {
			return fmt.Errorf("tenant: restoring %q: %w (%v)", it.ID, store.ErrCorrupt, err)
		}
		r.overrides[it.ID] = q
	}
	return nil
}
