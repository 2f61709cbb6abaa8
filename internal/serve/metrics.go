package serve

import (
	"math"
	"sort"
	"sync"
	"time"
)

// latencyWindow bounds how many recent job latencies the service-wide
// quantile estimates are computed over; tenantLatencyWindow bounds the
// per-tenant windows (smaller, because there can be many tenants).
const (
	latencyWindow       = 1024
	tenantLatencyWindow = 256
)

// latencyRing is a fixed-capacity sliding window of job latencies;
// callers synchronize access.
type latencyRing struct {
	buf   []time.Duration
	next  int
	count int
}

func newLatencyRing() latencyRing {
	return latencyRing{buf: make([]time.Duration, latencyWindow)}
}

func newTenantLatencyRing() latencyRing {
	return latencyRing{buf: make([]time.Duration, tenantLatencyWindow)}
}

func (r *latencyRing) observe(d time.Duration) {
	r.buf[r.next] = d
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
}

// quantiles returns the (p50, p99) of the window in milliseconds, or
// zeros for an empty window.
func (r *latencyRing) quantiles() (p50, p99 float64) {
	if r.count == 0 {
		return 0, 0
	}
	window := make([]time.Duration, r.count)
	copy(window, r.buf[:r.count])
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	return quantile(window, 0.50), quantile(window, 0.99)
}

// Metrics aggregates engine counters and sliding windows of job
// latencies. All methods are safe for concurrent use; Snapshot renders
// the current state for /metrics.
//
// Every job — a one-stage audit or a multi-stage pipeline — is counted
// once in the jobs_* totals and once under its admission class (its
// first stage's class). Latencies are windowed twice: every finished
// job lands in the combined window (p50_millis/p99_millis), while only
// jobs that actually ran land in the exec window
// (p50_exec_millis/p99_exec_millis). Cache hits finish in
// microseconds, so at high hit rates the combined quantiles tell the
// client story (most requests are instant) while the exec quantiles
// keep telling the capacity story.
type Metrics struct {
	mu             sync.Mutex
	workers        int
	jobsSubmitted  uint64
	jobsRejected   uint64
	jobsCompleted  uint64
	jobsFailed     uint64
	jobsRunning    int
	cacheHits      uint64
	cacheMisses    uint64
	stagesExecuted uint64
	all            latencyRing // every finished job, cache hits included
	exec           latencyRing // jobs that ran (not cache hits) only
	// classes holds the per-admission-class job counters; a class
	// appears on its first submission.
	classes map[string]*ClassSnapshot
	// tenants holds the per-tenant counter slices, keyed by tenant id;
	// a tenant appears on its first submission.
	tenants map[string]*tenantCounters
}

// tenantCounters is one tenant's slice of the engine counters: what it
// submitted, what finished for it (cache hits included), what
// admission rejected, the stages executed for it, and a bounded window
// of its finished-job latencies for the per-tenant quantiles.
type tenantCounters struct {
	submitted uint64
	executed  uint64
	rejected  uint64
	stages    uint64
	lat       latencyRing
}

func newMetrics(workers int) *Metrics {
	return &Metrics{
		workers: workers,
		all:     newLatencyRing(),
		exec:    newLatencyRing(),
		classes: map[string]*ClassSnapshot{},
		tenants: map[string]*tenantCounters{},
	}
}

// tenantLocked returns ten's counters, creating them on first sight.
func (m *Metrics) tenantLocked(ten string) *tenantCounters {
	tc := m.tenants[ten]
	if tc == nil {
		tc = &tenantCounters{lat: newTenantLatencyRing()}
		m.tenants[ten] = tc
	}
	return tc
}

// classLocked returns class's counters, creating them on first sight.
func (m *Metrics) classLocked(class string) *ClassSnapshot {
	c := m.classes[class]
	if c == nil {
		c = &ClassSnapshot{}
		m.classes[class] = c
	}
	return c
}

func (m *Metrics) submitted(ten, class string) {
	m.mu.Lock()
	m.jobsSubmitted++
	m.classLocked(class).Submitted++
	m.tenantLocked(ten).submitted++
	m.mu.Unlock()
}

func (m *Metrics) rejected(ten, class string) {
	m.mu.Lock()
	m.jobsRejected++
	m.classLocked(class).Rejected++
	m.tenantLocked(ten).rejected++
	m.mu.Unlock()
}

func (m *Metrics) stageExecuted(ten string) {
	m.mu.Lock()
	m.stagesExecuted++
	m.tenantLocked(ten).stages++
	m.mu.Unlock()
}

func (m *Metrics) cacheHit()  { m.mu.Lock(); m.cacheHits++; m.mu.Unlock() }
func (m *Metrics) cacheMiss() { m.mu.Lock(); m.cacheMisses++; m.mu.Unlock() }
func (m *Metrics) started()   { m.mu.Lock(); m.jobsRunning++; m.mu.Unlock() }
func (m *Metrics) stopped()   { m.mu.Lock(); m.jobsRunning--; m.mu.Unlock() }

// finished records one finished job: completed when ok, failed
// otherwise. Its latency lands in the combined and tenant windows, and
// in the exec window unless it was a cache hit, so the exec quantiles
// keep measuring work that actually ran.
func (m *Metrics) finished(ten, class string, ok, hit bool, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.classLocked(class)
	if ok {
		m.jobsCompleted++
		c.Completed++
	} else {
		m.jobsFailed++
		c.Failed++
	}
	tc := m.tenantLocked(ten)
	tc.executed++
	tc.lat.observe(d)
	m.all.observe(d)
	if !hit {
		m.exec.observe(d)
	}
}

// execP50 returns the executed-job p50 latency (0 with no samples);
// the engine's backoff estimator uses it as the per-job drain cost.
func (m *Metrics) execP50() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	p50, _ := m.exec.quantiles()
	return time.Duration(p50 * float64(time.Millisecond))
}

// Snapshot is a point-in-time, JSON-serializable view of the metrics.
// The json field names are the service's stable /metrics contract,
// documented in README "Metrics reference"; scrapers may rely on them.
type Snapshot struct {
	Workers int `json:"workers"`
	// The jobs_* counters count every job, audits and pipelines alike;
	// submissions include cache hits and rejected attempts.
	JobsSubmitted uint64  `json:"jobs_submitted"`
	JobsRejected  uint64  `json:"jobs_rejected"`
	JobsCompleted uint64  `json:"jobs_completed"`
	JobsFailed    uint64  `json:"jobs_failed"`
	JobsRunning   int     `json:"jobs_running"`
	CacheHits     uint64  `json:"cache_hits"`
	CacheMisses   uint64  `json:"cache_misses"`
	CacheHitRate  float64 `json:"cache_hit_rate"` // hits / (hits+misses), 0 when no lookups
	// StagesExecuted counts every stage a worker ran, across all jobs.
	StagesExecuted uint64 `json:"stages_executed"`
	// Classes splits the job counters by admission class (a job's class
	// is its first stage's), keyed by class name.
	Classes map[string]ClassSnapshot `json:"classes,omitempty"`
	// LatencyWindow is the sliding-window capacity (in jobs) the
	// latency quantiles are computed over; LatencySamples is how many
	// finished jobs currently populate the combined window and
	// ExecLatencySamples the executed-only window.
	LatencyWindow      int `json:"latency_window"`
	LatencySamples     int `json:"latency_samples"`
	ExecLatencySamples int `json:"exec_latency_samples"`
	// P50Millis/P99Millis cover every finished job, cache hits
	// included; P50ExecMillis/P99ExecMillis cover jobs that ran only,
	// so a rising hit rate cannot drag them toward zero.
	P50Millis     float64 `json:"p50_millis"`
	P99Millis     float64 `json:"p99_millis"`
	P50ExecMillis float64 `json:"p50_exec_millis"`
	P99ExecMillis float64 `json:"p99_exec_millis"`
	// Tenants is the per-tenant slice of the engine counters, keyed by
	// tenant id (JSON maps marshal in sorted key order, so the
	// rendering is deterministic). Queued is filled by the engine from
	// the live scheduler; the other fields come from the counters.
	Tenants map[string]TenantSnapshot `json:"tenants,omitempty"`
}

// ClassSnapshot is one admission class's slice of the job counters.
type ClassSnapshot struct {
	Submitted uint64 `json:"submitted"`
	Rejected  uint64 `json:"rejected"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
}

// TenantSnapshot is one tenant's slice of the engine metrics.
type TenantSnapshot struct {
	// Queued is the tenant's current scheduler queue depth.
	Queued int `json:"queued"`
	// Submitted counts every submission attempt by the tenant: cache
	// hits and rejected attempts included.
	Submitted uint64 `json:"submitted"`
	// Executed counts the tenant's finished jobs (done, failed, or
	// cache-served).
	Executed uint64 `json:"executed"`
	// Rejected counts the tenant's admission rejections (429s and the
	// tenant's share of 503s).
	Rejected uint64 `json:"rejected"`
	// Stages counts the stages executed for the tenant.
	Stages uint64 `json:"stages,omitempty"`
	// P50Millis/P99Millis are the tenant's finished-job latency
	// quantiles over a sliding window of tenantLatencyWindow jobs
	// (cache hits included).
	P50Millis float64 `json:"p50_millis"`
	P99Millis float64 `json:"p99_millis"`
	// LatencySamples is how many finished jobs populate the window.
	LatencySamples int `json:"latency_samples"`
}

// Snapshot renders the current counters and latency quantiles.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		Workers:            m.workers,
		JobsSubmitted:      m.jobsSubmitted,
		JobsRejected:       m.jobsRejected,
		JobsCompleted:      m.jobsCompleted,
		JobsFailed:         m.jobsFailed,
		JobsRunning:        m.jobsRunning,
		CacheHits:          m.cacheHits,
		CacheMisses:        m.cacheMisses,
		StagesExecuted:     m.stagesExecuted,
		LatencyWindow:      latencyWindow,
		LatencySamples:     m.all.count,
		ExecLatencySamples: m.exec.count,
	}
	if lookups := m.cacheHits + m.cacheMisses; lookups > 0 {
		s.CacheHitRate = float64(m.cacheHits) / float64(lookups)
	}
	s.P50Millis, s.P99Millis = m.all.quantiles()
	s.P50ExecMillis, s.P99ExecMillis = m.exec.quantiles()
	if len(m.classes) > 0 {
		s.Classes = make(map[string]ClassSnapshot, len(m.classes))
		for class, c := range m.classes {
			s.Classes[class] = *c
		}
	}
	if len(m.tenants) > 0 {
		s.Tenants = make(map[string]TenantSnapshot, len(m.tenants))
		for id, tc := range m.tenants {
			ts := TenantSnapshot{
				Submitted:      tc.submitted,
				Executed:       tc.executed,
				Rejected:       tc.rejected,
				Stages:         tc.stages,
				LatencySamples: tc.lat.count,
			}
			ts.P50Millis, ts.P99Millis = tc.lat.quantiles()
			s.Tenants[id] = ts
		}
	}
	return s
}

// quantile returns the q-quantile of sorted latencies in milliseconds
// (nearest-rank: the smallest value with at least a q fraction of the
// sample at or below it, so p99 of a small sample is its maximum, not
// its minimum).
func quantile(sorted []time.Duration, q float64) float64 {
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}
