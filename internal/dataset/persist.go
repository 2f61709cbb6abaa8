package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/store"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// Persistence. With a store attached, the registry mirrors its
// resident set durably: PutAs writes the dataset (exact frame codec,
// keyed by its content hash) before reporting success, DeleteAs removes
// the durable copy before the resident one, and evictions drop both.
// The invariant is simple — the store holds exactly the resident set —
// so a restart restores exactly what was resident, and the content
// hash doubles as an integrity check: a restored frame that no longer
// hashes to its key is refused as corrupt.

// datasetDoc is the persisted form of one resident dataset. Ownership
// lives here, on the resource record itself — not in a separate
// tenant→refs list — so a crash can never leave a dataset and its
// ownership disagreeing.
type datasetDoc struct {
	// Name is the upload name shown in Meta.
	Name string `json:"name"`
	// Tenant is the owning tenant (omitted for the default tenant,
	// keeping pre-multi-tenant state directories readable).
	Tenant string `json:"tenant,omitempty"`
	// Frame is the exact frame encoding (frame.WriteJSON).
	Frame json.RawMessage `json:"frame"`
}

// storeID is the KindDataset record key for (ten, ref): the bare ref
// for the default tenant — bit-compatible with state directories
// written before tenancy existed — and "ten.ref" otherwise. Tenant ids
// cannot contain '.', and refs are fixed-width hex, so the first dot
// splits unambiguously.
func storeID(ten, ref string) string {
	if ten == tenant.Default {
		return ref
	}
	return ten + "." + ref
}

// parseStoreID inverts storeID.
func parseStoreID(id string) (ten, ref string) {
	if i := strings.IndexByte(id, '.'); i >= 0 {
		return id[:i], id[i+1:]
	}
	return tenant.Default, id
}

// AttachStore restores every persisted dataset into the registry and
// mirrors all later mutations into st. Call it once, before serving
// traffic and before monitor restore (monitors re-pin their baselines
// out of what AttachStore made resident). Restored entries arrive in
// ref order and are subject to the byte budget: if the budget shrank
// between boots, least recently restored unpinned entries are evicted
// — durably, keeping the store equal to the resident set.
//
// A payload that fails to decode, or decodes to a frame whose hash is
// not its key, aborts the restore with an error naming the record:
// corrupt state is refused, not silently dropped.
func (r *Registry) AttachStore(st store.Store) error {
	items, err := st.List(store.KindDataset)
	if err != nil {
		return fmt.Errorf("dataset: restoring registry: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store = st
	for _, it := range items {
		var doc datasetDoc
		if err := json.Unmarshal(it.Payload, &doc); err != nil {
			return fmt.Errorf("dataset: restoring %q: %w (%v)", it.ID, store.ErrCorrupt, err)
		}
		ten, ref := parseStoreID(it.ID)
		if doc.Tenant != "" && doc.Tenant != ten {
			return fmt.Errorf("dataset: restoring %q: record claims tenant %q: %w", it.ID, doc.Tenant, store.ErrCorrupt)
		}
		f, err := frame.ReadJSON(bytes.NewReader(doc.Frame))
		if err != nil {
			return fmt.Errorf("dataset: restoring %q: %w (%v)", it.ID, store.ErrCorrupt, err)
		}
		if got := f.Hash(); got != ref {
			return fmt.Errorf("dataset: restoring %q: frame hashes to %s: %w", it.ID, got, store.ErrCorrupt)
		}
		size := SizeOf(f)
		if size > r.budget {
			// The budget shrank below this dataset since it was
			// persisted. Keep the invariant (store == resident set):
			// drop it durably rather than carry unreachable state.
			if derr := st.Delete(store.KindDataset, it.ID); derr != nil {
				return fmt.Errorf("dataset: restoring %q: dropping over-budget dataset: %v", it.ID, derr)
			}
			r.evictions++
			continue
		}
		for r.bytes+size > r.budget {
			if !r.evictOldestUnpinned() {
				break
			}
		}
		e := &entry{
			meta: Meta{
				Ref:    ref,
				Tenant: ten,
				Name:   doc.Name,
				Rows:   f.NumRows(),
				Cols:   f.NumCols(),
				Bytes:  size,
			},
			data: f,
		}
		r.byRef[refKey{ten, ref}] = r.order.PushFront(e)
		r.bytes += size
		r.chargeLocked(ten, 1, size)
	}
	return nil
}

// saveLocked persists e's dataset under its tenant-scoped store id;
// callers hold r.mu and have checked r.store != nil.
func (r *Registry) saveLocked(e *entry) error {
	var buf bytes.Buffer
	if err := e.data.WriteJSON(&buf); err != nil {
		return err
	}
	doc := datasetDoc{Name: e.meta.Name, Frame: buf.Bytes()}
	if e.meta.Tenant != tenant.Default {
		doc.Tenant = e.meta.Tenant
	}
	payload, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return r.store.Save(store.KindDataset, storeID(e.meta.Tenant, e.meta.Ref), payload)
}

// dropStoredLocked removes (ten, ref)'s durable copy, counting (not
// propagating) failures; callers hold r.mu. Used on the eviction path,
// where the in-memory eviction has already happened and the worst case
// of a leftover record is re-residency on the next boot.
func (r *Registry) dropStoredLocked(ten, ref string) {
	if r.store == nil {
		return
	}
	if err := r.store.Delete(store.KindDataset, storeID(ten, ref)); err != nil {
		r.persistErrors++
	}
}
