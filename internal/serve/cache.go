package serve

import (
	"container/list"
	"encoding/json"
	"sync"

	"github.com/responsible-data-science/rds/internal/core"
)

// ReportCache is a fixed-capacity LRU cache of audit reports keyed by
// the content hash of (dataset, policy, spec, seed). Because an audit
// is a pure function of that tuple, a hit can be served without
// re-running the pipeline — to any tenant: lookups are global by key,
// so two tenants auditing the same public dataset share one entry.
//
// Occupancy, however, is partitioned by the inserting tenant: every
// entry is charged (by marshaled-report byte size) to the tenant whose
// audit produced it, and when the cache is full the victim is the
// least-recently-used entry of the tenant currently holding the most
// bytes. A tenant churning unique-seed audits therefore evicts its own
// older entries once it holds the largest share — it converges to an
// equal byte split instead of flushing other tenants' hot reports.
// Safe for concurrent use.
type ReportCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; values are *cacheEntry
	byKey    map[string]*list.Element
	// bytes is each tenant's resident report-byte total.
	bytes map[string]int64
}

type cacheEntry struct {
	key    string
	tenant string
	size   int64
	report *core.FACTReport
}

// NewReportCache creates a cache holding at most capacity reports
// (capacity < 1 is treated as 1).
func NewReportCache(capacity int) *ReportCache {
	if capacity < 1 {
		capacity = 1
	}
	return &ReportCache{
		capacity: capacity,
		order:    list.New(),
		byKey:    map[string]*list.Element{},
		bytes:    map[string]int64{},
	}
}

// Get returns the cached report for key, marking it most recently used.
func (c *ReportCache) Get(key string) (*core.FACTReport, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).report, true
}

// PutAs stores a report under key, charging its byte size to ten's
// share. When the cache is full the evicted entry is the LRU entry of
// the tenant holding the most bytes. Storing an existing key refreshes
// its recency (the entry keeps its original owner — audits are pure,
// so the bytes are the same either way).
func (c *ReportCache) PutAs(ten, key string, report *core.FACTReport) {
	size := reportSize(report)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.bytes[ent.tenant] += size - ent.size
		ent.report = report
		ent.size = size
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.capacity {
		c.evictLocked(ten, size)
	}
	c.byKey[key] = c.order.PushFront(&cacheEntry{key: key, tenant: ten, size: size, report: report})
	c.bytes[ten] += size
}

// evictLocked removes the least-recently-used entry of the tenant that
// would hold the largest byte total after the pending insert (ties
// broken by tenant id for determinism). Charging the incoming entry to
// the inserting tenant before picking the victim is what makes a
// churner evict its own entries rather than a quiet tenant's: the
// insert that needs the space counts against the tenant making it.
func (c *ReportCache) evictLocked(inserting string, incoming int64) {
	victim := ""
	var max int64 = -1
	for ten, b := range c.bytes {
		if ten == inserting {
			b += incoming
		}
		if b > max || (b == max && ten < victim) {
			victim, max = ten, b
		}
	}
	for el := c.order.Back(); el != nil; el = el.Prev() {
		ent := el.Value.(*cacheEntry)
		if ent.tenant != victim {
			continue
		}
		c.order.Remove(el)
		delete(c.byKey, ent.key)
		c.bytes[victim] -= ent.size
		if c.bytes[victim] <= 0 {
			delete(c.bytes, victim)
		}
		return
	}
	// No entry for the accounting victim (shouldn't happen): fall back
	// to plain LRU so the cache can never wedge.
	if oldest := c.order.Back(); oldest != nil {
		ent := oldest.Value.(*cacheEntry)
		c.order.Remove(oldest)
		delete(c.byKey, ent.key)
		c.bytes[ent.tenant] -= ent.size
		if c.bytes[ent.tenant] <= 0 {
			delete(c.bytes, ent.tenant)
		}
	}
}

// Len returns the number of cached reports.
func (c *ReportCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// TenantBytes returns each tenant's resident report-byte total —
// the shares the eviction policy balances. Exposed for tests and
// operational introspection.
func (c *ReportCache) TenantBytes() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.bytes))
	for ten, b := range c.bytes {
		out[ten] = b
	}
	return out
}

// reportSize approximates a report's resident cost by its marshaled
// JSON length (reports are what /v1/audit serves, so wire size is the
// honest measure). Never returns less than 1 so accounting can't lose
// entries.
func reportSize(report *core.FACTReport) int64 {
	b, err := json.Marshal(report)
	if err != nil || len(b) == 0 {
		return 1
	}
	return int64(len(b))
}
