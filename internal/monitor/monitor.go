package monitor

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/policy"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/store"
	"github.com/responsible-data-science/rds/internal/stream"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// DefaultHistory is the default per-monitor window-history ring size.
const DefaultHistory = 64

// alertTimeout bounds one alert's total sink-delivery time.
const alertTimeout = 30 * time.Second

// Spec declares one continuous monitor: what to audit, how to window
// the stream, when to re-audit, and how to score drift.
type Spec struct {
	// Name labels the monitored dataset in reports and alerts. Required;
	// unique among the owning tenant's live monitors (two tenants may
	// each have a monitor named "prod").
	Name string
	// Tenant is the owning tenant's id ("" means the default tenant).
	// It scopes name uniqueness, baseline-ref resolution, the monitor
	// count quota, and which audits the monitor's windows bill to.
	Tenant string
	// Policy holds the FACT thresholds each window is graded against.
	Policy policy.FACTPolicy
	// Train describes the training run audited per window.
	Train core.TrainSpec
	// Seed drives each window audit's stochastic steps (default 1).
	Seed uint64
	// Window shapes the stream windower.
	Window WindowConfig
	// Drift parameterizes PSI/KS scoring against the pinned baseline.
	Drift DriftConfig
	// BaselineRef, when set, pins the drift baseline at registration
	// time from the dataset registry (RegistryConfig.Datasets) instead
	// of waiting for the first auditable window: the named dataset is
	// audited once, its drift profile precomputed, and the dataset
	// pinned in the registry so LRU eviction cannot drop a standing
	// monitor's baseline. The pin is released when the monitor is
	// deleted. Every stream window — the first included — is then
	// scored against this baseline.
	BaselineRef string
	// AuditEvery is the audit cadence in windows: 1 audits every window,
	// N audits every Nth (default 1). Drift breaches force an immediate
	// off-cadence audit regardless.
	AuditEvery int
	// ReauditEvery schedules wall-clock re-audits of the latest
	// materialized window even when no new data arrives (0 disables).
	ReauditEvery time.Duration
	// History bounds the per-window history ring (default 64).
	History int
	// Sinks receive this monitor's alerts, in addition to the
	// registry-wide sinks.
	Sinks []Sink
}

func (s Spec) withDefaults() Spec {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.AuditEvery <= 0 {
		s.AuditEvery = 1
	}
	if s.History <= 0 {
		s.History = DefaultHistory
	}
	s.Window = s.Window.withDefaults()
	s.Drift = s.Drift.withDefaults()
	return s
}

// WindowEntry is one history record: a materialized window with its
// drift score and (when audited) its FACT report.
type WindowEntry struct {
	// Window is the window index; scheduled re-audits reuse the index
	// of the window they re-grade.
	Window  int64 `json:"window"`
	StartMS int64 `json:"start_ms"`
	EndMS   int64 `json:"end_ms"`
	Rows    int   `json:"rows"`
	// Baseline marks the pinned baseline window.
	Baseline bool `json:"baseline,omitempty"`
	// Skipped marks windows below MinRows, recorded but not graded.
	Skipped bool `json:"skipped,omitempty"`
	// Audited reports whether this entry carries a fresh FACT report.
	Audited bool `json:"audited"`
	// Scheduled marks entries produced by the re-audit schedule rather
	// than by stream progress.
	Scheduled bool `json:"scheduled,omitempty"`
	// Reaudits counts consecutive scheduled re-audits coalesced into
	// this entry (same window, same outcome): the heartbeat confirms
	// liveness without flooding the history ring.
	Reaudits int           `json:"reaudits,omitempty"`
	Grade    *policy.Grade `json:"grade,omitempty"`
	// DriftMillis is the wall-clock cost of scoring this window's drift
	// against the pinned baseline profile from its chunk states (0 for
	// the baseline window itself and for skipped windows).
	DriftMillis float64 `json:"drift_millis,omitempty"`
	// Regressed marks an audited entry whose grade is worse than the
	// previously audited grade.
	Regressed bool             `json:"regressed,omitempty"`
	Drift     *DriftReport     `json:"drift,omitempty"`
	Report    *core.FACTReport `json:"report,omitempty"`
	Error     string           `json:"error,omitempty"`
}

// Summary is a monitor's point-in-time status for listings and alerts.
type Summary struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Tenant string `json:"tenant"`
	// BaselinePinned reports whether a baseline window has been audited
	// and pinned for drift comparison.
	BaselinePinned bool          `json:"baseline_pinned"`
	BaselineGrade  *policy.Grade `json:"baseline_grade,omitempty"`
	// Degraded marks a restored monitor whose BaselineRef dataset was
	// no longer resident after restart (or failed its re-audit): the
	// monitor keeps running — on its persisted profile when one
	// survived, otherwise re-baselining from the stream — but the
	// registration-time pin is gone until the dataset is re-uploaded
	// and the monitor re-registered.
	Degraded bool `json:"degraded,omitempty"`
	// ProfileBuildMillis is the one-time cost of precomputing the
	// pinned baseline's drift profile (0 until a baseline is pinned).
	ProfileBuildMillis float64       `json:"profile_build_millis,omitempty"`
	LastGrade          *policy.Grade `json:"last_grade,omitempty"`
	LastWindow         int64         `json:"last_window"`
	RowsIngested       uint64        `json:"rows_ingested"`
	LateRows           int64         `json:"late_rows"`
	Windows            uint64        `json:"windows"`
	Audits             uint64        `json:"audits"`
	DriftBreaches      uint64        `json:"drift_breaches"`
	Regressions        uint64        `json:"grade_regressions"`
	HistoryLen         int           `json:"history_len"`
}

// RegistryConfig parameterizes a Registry.
type RegistryConfig struct {
	// Engine runs the per-window audits. Required; shared with the
	// request/response plane so both compete fairly for workers.
	Engine *serve.Engine
	// Datasets, when set, lets monitor registrations pin a resident
	// dataset as their drift baseline by content ref (Spec.BaselineRef).
	Datasets *dataset.Registry
	// ChunkStates, when set, lets windows reuse chunk states. Every
	// window is drift-scored by a ChunkScorer from per-chunk states
	// (baseline slots and level counts); the cache keeps them under
	// (chunk hash, baseline fingerprint), so a window advance reuses
	// the surviving chunks' states and only sorts and ranks the rows
	// that entered. Nil rebuilds every chunk's state every window. The
	// reports are the same either way, bit-identical to
	// DetectDriftProfiled over the materialized window (the
	// incremental≡rescan property tests enforce it).
	ChunkStates *dataset.StateCache
	// Sinks receive every monitor's alerts (e.g. one LogSink).
	Sinks []Sink
	// Quotas, when set, resolves a tenant's quota config at
	// registration time; a tenant at its MaxMonitors limit gets
	// tenant.ErrQuota instead of a new monitor. Nil means unlimited.
	Quotas func(string) tenant.Quotas
	// Store, when set, durably persists monitor specs and pinned
	// baseline profiles so Restore can rebuild the monitoring plane
	// after a restart (see persist.go for exactly what survives).
	Store store.Store
}

// Registry owns the live monitors: registration, lookup, deletion,
// alert fan-out, and plane-wide metrics. Safe for concurrent use.
type Registry struct {
	cfg RegistryConfig

	mu       sync.Mutex
	monitors map[string]*Monitor
	seq      uint64
	closed   bool

	metrics registryMetrics
}

// registryMetrics aggregates monitoring-plane counters; guarded by its
// own mutex so hot ingest paths don't contend with registry lookups.
type registryMetrics struct {
	mu                  sync.Mutex
	monitorsTotal       uint64
	rowsIngested        uint64
	windowsMaterialized uint64
	windowsAudited      uint64
	windowsSkipped      uint64
	driftBreaches       uint64
	gradeRegressions    uint64
	scheduledReaudits   uint64
	auditFailures       uint64
	alertsDelivered     uint64
	alertsFailed        uint64
	profileBuilds       uint64
	profileBuildMillis  float64
	driftWindows        uint64
	driftMillis         float64
	persistFailures     uint64
}

func (m *registryMetrics) bump(field *uint64, by uint64) {
	m.mu.Lock()
	*field += by
	m.mu.Unlock()
}

// bumpMillis accumulates a wall-clock duration into a millisecond
// gauge (profile builds, per-window drift scoring).
func (m *registryMetrics) bumpMillis(field *float64, d time.Duration) {
	m.mu.Lock()
	*field += float64(d) / float64(time.Millisecond)
	m.mu.Unlock()
}

// MetricsSnapshot is the monitoring plane's JSON gauge set, merged into
// GET /metrics under the "monitor" key.
type MetricsSnapshot struct {
	MonitorsActive      int    `json:"monitors_active"`
	MonitorsTotal       uint64 `json:"monitors_total"`
	RowsIngested        uint64 `json:"rows_ingested"`
	WindowsMaterialized uint64 `json:"windows_materialized"`
	WindowsAudited      uint64 `json:"windows_audited"`
	WindowsSkipped      uint64 `json:"windows_skipped"`
	DriftBreaches       uint64 `json:"drift_breaches"`
	GradeRegressions    uint64 `json:"grade_regressions"`
	ScheduledReaudits   uint64 `json:"scheduled_reaudits"`
	AuditFailures       uint64 `json:"audit_failures"`
	AlertsDelivered     uint64 `json:"alerts_delivered"`
	AlertsFailed        uint64 `json:"alerts_failed"`
	// BaselineProfiles counts pinned baselines whose drift profile was
	// precomputed; ProfileBuildMillis is their cumulative build cost.
	BaselineProfiles   uint64  `json:"baseline_profiles_built"`
	ProfileBuildMillis float64 `json:"profile_build_millis_total"`
	// DriftWindows counts windows scored against a baseline profile;
	// DriftMillis is their cumulative scoring cost, so
	// DriftMillis / DriftWindows is the plane's mean per-window drift
	// latency.
	DriftWindows uint64  `json:"drift_windows_scored"`
	DriftMillis  float64 `json:"drift_millis_total"`
	// PersistFailures counts best-effort store writes/deletes that
	// failed (stream-pinned profile saves, post-delete record removal);
	// persist failures on the registration path fail the registration
	// instead of counting here.
	PersistFailures uint64 `json:"persist_failures"`
	// Tenants maps tenant id to that tenant's live monitor count
	// (tenants with no monitors are omitted).
	Tenants map[string]int `json:"tenants,omitempty"`
}

// NewRegistry creates an empty registry backed by the given engine.
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("monitor: registry needs a serve.Engine")
	}
	return &Registry{cfg: cfg, monitors: map[string]*Monitor{}}, nil
}

// Register validates the spec, creates the monitor, and starts its
// re-audit schedule (when configured). A spec carrying a BaselineRef
// resolves and pins the dataset in the dataset registry, audits it,
// and precomputes its drift profile before the monitor goes live — a
// failed baseline audit fails the whole registration.
func (r *Registry) Register(spec Spec) (*Monitor, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("monitor: spec needs a name")
	}
	ten, err := tenant.Normalize(spec.Tenant)
	if err != nil {
		return nil, err
	}
	spec.Tenant = ten
	if err := spec.Policy.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	if err := spec.Window.validate(); err != nil {
		return nil, err
	}

	// Resolve and pin the baseline before the monitor exists: the pin
	// shields the dataset from LRU eviction for the monitor's lifetime.
	var baseline *frame.Frame
	if spec.BaselineRef != "" {
		if r.cfg.Datasets == nil {
			return nil, fmt.Errorf("monitor: spec has baseline_ref %q but the registry has no dataset registry", spec.BaselineRef)
		}
		f, ok := r.cfg.Datasets.PinAs(spec.Tenant, spec.BaselineRef)
		if !ok {
			return nil, fmt.Errorf("monitor: unknown baseline_ref %q (load it first via POST /v1/datasets)", spec.BaselineRef)
		}
		baseline = f
	}

	// Reserve an id up front; the monitor is NOT published until its
	// baseline (if any) is pinned, so Get/List/Delete/Ingest can never
	// observe a half-initialized monitor mid-baseline-audit.
	r.mu.Lock()
	if err := r.checkRegistrableLocked(spec.Tenant, spec.Name); err != nil {
		r.mu.Unlock()
		r.unpinDataset(spec.Tenant, spec.BaselineRef)
		return nil, err
	}
	r.seq++
	m := &Monitor{
		id:   fmt.Sprintf("mon-%06d", r.seq),
		spec: spec,
		reg:  r,
		win:  newWindower(spec.Window),
		stop: make(chan struct{}),
	}
	r.mu.Unlock()

	if baseline != nil {
		// The baseline audit runs outside r.mu (audits can be slow and
		// must not block the registry).
		if err := m.pinBaseline(baseline, spec.BaselineRef); err != nil {
			m.stopSchedule()
			m.releasePin()
			return nil, err
		}
	}

	r.mu.Lock()
	// Re-check: the registry may have closed, or a same-name Register
	// may have won the race, while the baseline audit ran.
	if err := r.checkRegistrableLocked(spec.Tenant, spec.Name); err != nil {
		r.mu.Unlock()
		m.stopSchedule()
		m.releasePin()
		return nil, err
	}
	r.monitors[m.id] = m
	r.metrics.bump(&r.metrics.monitorsTotal, 1)
	r.mu.Unlock()

	// Durability before success: a registration the caller saw succeed
	// must survive a restart, so a failed persist unwinds the whole
	// registration (Delete also clears any partial records).
	err = r.persistSpec(m)
	if err == nil {
		m.procMu.Lock()
		err = r.persistProfileLocked(m)
		m.procMu.Unlock()
	}
	if err != nil {
		r.Delete(m.id)
		return nil, fmt.Errorf("monitor: persisting %s: %w", m.id, err)
	}

	if spec.ReauditEvery > 0 {
		go m.reauditLoop(spec.ReauditEvery)
	}
	return m, nil
}

// checkRegistrableLocked rejects registration on a closed registry, a
// duplicate monitor name within the tenant, or a tenant already at its
// MaxMonitors quota; callers hold r.mu.
func (r *Registry) checkRegistrableLocked(ten, name string) error {
	owned, err := r.checkRestorableLocked(ten, name)
	if err != nil {
		return err
	}
	if r.cfg.Quotas != nil {
		if q := r.cfg.Quotas(ten); q.MaxMonitors > 0 && owned >= q.MaxMonitors {
			return fmt.Errorf("monitor: tenant %q at monitor quota (%d): %w", ten, q.MaxMonitors, tenant.ErrQuota)
		}
	}
	return nil
}

// checkRestorableLocked is checkRegistrableLocked minus the quota
// check (Restore must not refuse monitors a lowered quota now
// excludes); it returns the tenant's current monitor count so the
// registration path can apply the quota on top. Callers hold r.mu.
func (r *Registry) checkRestorableLocked(ten, name string) (owned int, err error) {
	if r.closed {
		return 0, fmt.Errorf("monitor: registry closed")
	}
	for _, m := range r.monitors {
		if m.spec.Tenant != ten {
			continue
		}
		owned++
		if m.spec.Name == name {
			return owned, fmt.Errorf("monitor: name %q already registered as %s", name, m.id)
		}
	}
	return owned, nil
}

// unpinDataset releases a tenant's baseline pin, tolerating an empty
// ref or an absent dataset registry.
func (r *Registry) unpinDataset(ten, ref string) {
	if ref != "" && r.cfg.Datasets != nil {
		r.cfg.Datasets.UnpinAs(ten, ref)
	}
}

// Get returns the monitor with the given id.
func (r *Registry) Get(id string) (*Monitor, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.monitors[id]
	return m, ok
}

// List returns summaries of all live monitors, ordered by id.
func (r *Registry) List() []Summary {
	r.mu.Lock()
	ms := make([]*Monitor, 0, len(r.monitors))
	for _, m := range r.monitors {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	out := make([]Summary, 0, len(ms))
	for _, m := range ms {
		out = append(out, m.Status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ListAs returns summaries of the tenant's live monitors, ordered by
// id. Other tenants' monitors are invisible.
func (r *Registry) ListAs(ten string) []Summary {
	out := make([]Summary, 0)
	for _, s := range r.List() {
		if s.Tenant == ten {
			out = append(out, s)
		}
	}
	return out
}

// Delete stops and removes the monitor with the given id, reporting
// whether it existed. A baseline pinned from the dataset registry is
// released, making the dataset evictable again.
func (r *Registry) Delete(id string) bool {
	r.mu.Lock()
	m, ok := r.monitors[id]
	delete(r.monitors, id)
	r.mu.Unlock()
	if ok {
		m.stopSchedule()
		m.releasePin()
		r.dropPersisted(id)
	}
	return ok
}

// Close stops every monitor's schedule and rejects further
// registrations. The shared engine is left running (the
// request/response plane owns its lifecycle).
func (r *Registry) Close() {
	r.mu.Lock()
	r.closed = true
	ms := make([]*Monitor, 0, len(r.monitors))
	for _, m := range r.monitors {
		ms = append(ms, m)
	}
	r.monitors = map[string]*Monitor{}
	r.mu.Unlock()
	for _, m := range ms {
		m.stopSchedule()
		m.releasePin()
	}
}

// Metrics snapshots the monitoring plane's gauges.
func (r *Registry) Metrics() MetricsSnapshot {
	r.mu.Lock()
	active := len(r.monitors)
	var perTenant map[string]int
	if active > 0 {
		perTenant = make(map[string]int)
		for _, mon := range r.monitors {
			perTenant[mon.spec.Tenant]++
		}
	}
	r.mu.Unlock()
	m := &r.metrics
	m.mu.Lock()
	defer m.mu.Unlock()
	return MetricsSnapshot{
		MonitorsActive:      active,
		MonitorsTotal:       m.monitorsTotal,
		RowsIngested:        m.rowsIngested,
		WindowsMaterialized: m.windowsMaterialized,
		WindowsAudited:      m.windowsAudited,
		WindowsSkipped:      m.windowsSkipped,
		DriftBreaches:       m.driftBreaches,
		GradeRegressions:    m.gradeRegressions,
		ScheduledReaudits:   m.scheduledReaudits,
		AuditFailures:       m.auditFailures,
		AlertsDelivered:     m.alertsDelivered,
		AlertsFailed:        m.alertsFailed,
		BaselineProfiles:    m.profileBuilds,
		ProfileBuildMillis:  m.profileBuildMillis,
		DriftWindows:        m.driftWindows,
		DriftMillis:         m.driftMillis,
		PersistFailures:     m.persistFailures,
		Tenants:             perTenant,
	}
}

// deliver fans one alert out to the registry and monitor sinks.
func (r *Registry) deliver(a Alert, extra []Sink) {
	sinks := append(append([]Sink{}, r.cfg.Sinks...), extra...)
	if len(sinks) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), alertTimeout)
	defer cancel()
	for _, s := range sinks {
		if err := s.Deliver(ctx, a); err != nil {
			r.metrics.bump(&r.metrics.alertsFailed, 1)
		} else {
			r.metrics.bump(&r.metrics.alertsDelivered, 1)
		}
	}
}

// Monitor is one registered continuous audit: a windower over the
// arrival stream, a pinned baseline, a bounded window history, and
// per-monitor counters. All methods are safe for concurrent use.
type Monitor struct {
	id   string
	spec Spec
	reg  *Registry

	// procMu serializes stream processing — the windower, baseline
	// pinning, engine audits, and alert delivery — so windows are
	// graded in arrival order. Audits and webhook retries can be slow;
	// they hold only procMu, never mu.
	procMu     sync.Mutex
	win        *windower
	profile    *BaselineProfile // precomputed pinned-baseline drift state
	scorer     *ChunkScorer     // scores every window against profile
	lastFrame  *frame.Frame     // latest window, materialized lazily from lastChunks
	lastChunks []Chunk          // latest auditable window's chunk identities
	lastHash   string           // chunk-derived content id of the latest window
	sinceAudit int              // windows since the last audit (cadence counter)

	// mu guards the read-side state with short critical sections, so
	// Status and History stay responsive while an audit or alert
	// delivery is in flight under procMu.
	mu          sync.Mutex
	lastWindow  int64
	lastGrade   *policy.Grade // last audited grade
	baseGrade   *policy.Grade
	degraded    bool         // restored with a missing baseline dataset
	profileInfo *ProfileInfo // snapshot of the pinned profile's summary
	history     []WindowEntry
	rows        uint64
	lateRows    int64
	windows     uint64
	audits      uint64
	breaches    uint64
	regressions uint64

	stop     chan struct{}
	stopOnce sync.Once
	// releaseOnce guards the baseline dataset unpin so Delete, Close,
	// and a failed registration cannot double-release the pin.
	releaseOnce sync.Once
}

// ID returns the registry-assigned monitor id.
func (m *Monitor) ID() string { return m.id }

// Spec returns the monitor's effective (defaulted) spec.
func (m *Monitor) Spec() Spec { return m.spec }

// pinBaseline audits a registry-resident dataset and installs it as
// the pinned drift baseline at registration time (Spec.BaselineRef).
// The history entry uses window index -1: the baseline precedes the
// stream, so every real window — index 0 included — is drift-scored
// against it. ref doubles as the dataset's content hash, so the audit
// submit never re-hashes the (possibly 1M-row) frame.
func (m *Monitor) pinBaseline(f *frame.Frame, ref string) error {
	m.procMu.Lock()
	defer m.procMu.Unlock()
	entry := WindowEntry{Window: -1, Rows: f.NumRows(), Baseline: true}
	m.audit(f, &entry, ref)
	if entry.Error != "" {
		m.appendHistory(entry)
		return fmt.Errorf("monitor: baseline_ref %q audit failed: %s", ref, entry.Error)
	}
	if err := m.pinProfile(f, entry.Grade); err != nil {
		entry.Error = err.Error()
		m.appendHistory(entry)
		return fmt.Errorf("monitor: baseline_ref %q profile: %w", ref, err)
	}
	m.appendHistory(entry)
	return nil
}

// pinProfile precomputes f's drift profile, counts the build in the
// plane's gauges, and installs the profile as the pinned baseline,
// audited at grade. Callers hold procMu.
func (m *Monitor) pinProfile(f *frame.Frame, grade *policy.Grade) error {
	prof, err := NewBaselineProfile(f, m.spec.Drift)
	if err != nil {
		return err
	}
	m.reg.metrics.bump(&m.reg.metrics.profileBuilds, 1)
	m.reg.metrics.bumpMillis(&m.reg.metrics.profileBuildMillis, prof.BuildTime())
	m.installProfile(prof, grade)
	return nil
}

// installProfile makes prof, audited at grade, the pinned drift
// baseline and builds the scorer every later window is scored with.
// Callers hold procMu, or own m before it is published (Restore).
func (m *Monitor) installProfile(prof *BaselineProfile, grade *policy.Grade) {
	m.profile = prof
	m.scorer = newChunkScorer(prof, m.reg.cfg.ChunkStates)
	info := prof.Info()
	m.mu.Lock()
	m.baseGrade = grade
	m.profileInfo = &info
	m.mu.Unlock()
}

// releasePin releases the baseline dataset pin exactly once.
func (m *Monitor) releasePin() {
	m.releaseOnce.Do(func() { m.reg.unpinDataset(m.spec.Tenant, m.spec.BaselineRef) })
}

// Ingest feeds arrivals (in non-decreasing time order) through the
// windower, auditing every window the advancing watermark closes.
// Audits run synchronously on the calling goroutine via the shared
// engine, so Ingest returns only after closed windows are graded;
// concurrent Ingest calls on the same monitor are serialized. Status
// and History never wait on an in-flight audit or alert delivery.
//
// Every arrival is validated before any window state changes: a batch
// containing a negative TimeMS — which has no window on a stream clock
// that starts at zero — rejects the whole batch with an error instead
// of mis-assigning rows or panicking in window-index arithmetic. Any
// int64 TimeMS, down to math.MinInt64, is safe to submit.
func (m *Monitor) Ingest(arrivals ...stream.Arrival) error {
	for _, a := range arrivals {
		if err := a.Validate(); err != nil {
			return fmt.Errorf("monitor: %w", err)
		}
	}
	m.procMu.Lock()
	defer m.procMu.Unlock()
	for _, a := range arrivals {
		var n uint64
		if a.Rows != nil {
			n = uint64(a.Rows.NumRows())
			m.reg.metrics.bump(&m.reg.metrics.rowsIngested, n)
		}
		closed := m.win.observe(a)
		m.mu.Lock()
		m.rows += n
		m.lateRows = m.win.lateRows
		m.mu.Unlock()
		for _, w := range closed {
			m.processWindow(w)
		}
	}
	return nil
}

// Flush force-closes all open windows — the partial final windows of a
// finite stream — and audits them on the usual cadence.
func (m *Monitor) Flush() {
	m.procMu.Lock()
	defer m.procMu.Unlock()
	for _, w := range m.win.flush() {
		m.processWindow(w)
	}
}

// Reaudit re-grades the latest auditable window immediately,
// regardless of cadence; scheduled marks it as driven by the re-audit
// schedule. It is a no-op before the first auditable window closes.
// The audit submits under the window's chunk-derived content hash, so
// an unchanged window is answered by the engine's report cache without
// re-hashing the (possibly 1M-row) flat frame — a quiet stream's
// heartbeat costs O(chunks), not O(rows). Consecutive scheduled
// re-audits with the same outcome coalesce into one history entry
// whose Reaudits count records the repeated confirmations, so the
// heartbeat cannot flush real drift history out of the bounded ring.
func (m *Monitor) Reaudit(scheduled bool) {
	m.procMu.Lock()
	defer m.procMu.Unlock()
	if m.lastFrame == nil && len(m.lastChunks) == 0 {
		return
	}
	if scheduled {
		m.reg.metrics.bump(&m.reg.metrics.scheduledReaudits, 1)
	}
	f, err := m.windowFrame()
	if err != nil || f == nil {
		return
	}
	m.mu.Lock()
	lastWindow := m.lastWindow
	m.mu.Unlock()
	entry := WindowEntry{
		Window:    lastWindow,
		StartMS:   lastWindow * m.spec.Window.SlideMS,
		EndMS:     lastWindow*m.spec.Window.SlideMS + m.spec.Window.WidthMS,
		Rows:      f.NumRows(),
		Scheduled: scheduled,
		Reaudits:  1,
	}
	m.audit(f, &entry, m.lastHash)
	m.recordReaudit(entry)
}

// History returns a copy of the window history, oldest first.
func (m *Monitor) History() []WindowEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]WindowEntry(nil), m.history...)
}

// BaselineProfileInfo returns the pinned baseline profile's summary,
// or nil before a baseline is pinned. Like Status and History it takes
// only the read-side lock, so it never waits on an in-flight audit.
func (m *Monitor) BaselineProfileInfo() *ProfileInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.profileInfo == nil {
		return nil
	}
	info := *m.profileInfo
	return &info
}

// Status snapshots the monitor's counters and grades.
func (m *Monitor) Status() Summary {
	m.mu.Lock()
	defer m.mu.Unlock()
	var buildMS float64
	if m.profileInfo != nil {
		buildMS = m.profileInfo.BuildMillis
	}
	return Summary{
		ID:                 m.id,
		Name:               m.spec.Name,
		Tenant:             m.spec.Tenant,
		BaselinePinned:     m.baseGrade != nil,
		BaselineGrade:      m.baseGrade,
		Degraded:           m.degraded,
		ProfileBuildMillis: buildMS,
		LastGrade:          m.lastGrade,
		LastWindow:         m.lastWindow,
		RowsIngested:       m.rows,
		LateRows:           m.lateRows,
		Windows:            m.windows,
		Audits:             m.audits,
		DriftBreaches:      m.breaches,
		Regressions:        m.regressions,
		HistoryLen:         len(m.history),
	}
}

// processWindow grades one closed window; callers hold m.procMu (never
// m.mu — audits and alert delivery must not block Status/History).
func (m *Monitor) processWindow(w *closedWindow) {
	m.mu.Lock()
	m.windows++
	m.mu.Unlock()
	m.reg.metrics.bump(&m.reg.metrics.windowsMaterialized, 1)
	entry := WindowEntry{Window: w.index, StartMS: w.startMS, EndMS: w.endMS, Rows: w.rows}

	if w.rows < m.spec.Window.MinRows {
		m.skipWindow(entry, nil)
		return
	}
	chunks := w.chunks()
	if m.profile == nil {
		// First auditable window: always audit, pin as the drift
		// baseline, and precompute the baseline profile every later
		// window is scored against.
		f, err := materializeChunks(chunks, w.index)
		if err != nil || f == nil {
			m.skipWindow(entry, err)
			return
		}
		m.setLastWindow(w.index, chunks, f)
		entry.Baseline = true
		m.audit(f, &entry, "")
		if entry.Error == "" {
			if perr := m.pinProfile(f, entry.Grade); perr != nil {
				entry.Error = perr.Error()
			} else if perr := m.reg.persistProfileLocked(m); perr != nil {
				// Best-effort: the stream-pinned baseline keeps scoring
				// in memory either way; a failed save only costs the
				// profile a re-pin from the stream after a restart.
				m.reg.metrics.bump(&m.reg.metrics.persistFailures, 1)
			}
		}
		m.sinceAudit = 0
		m.appendHistory(entry)
		return
	}

	// Drift path: score the window from its chunk states, O(delta) per
	// slide when the registry caches them, and defer materialization
	// until an audit needs the flat frame. Score refuses exactly the
	// windows materializing would: chunks of two schemas, which skip
	// the window with the materialization error, and a profiled column
	// that changed dtype, whose error the window records.
	driftStart := time.Now()
	drift, derr := m.scorer.Score(chunks)
	var f *frame.Frame
	if derr != nil {
		var err error
		if f, err = materializeChunks(chunks, w.index); err != nil {
			m.skipWindow(entry, err)
			return
		}
	}
	driftDur := time.Since(driftStart)
	m.setLastWindow(w.index, chunks, f)
	entry.DriftMillis = float64(driftDur) / float64(time.Millisecond)
	m.reg.metrics.bump(&m.reg.metrics.driftWindows, 1)
	m.reg.metrics.bumpMillis(&m.reg.metrics.driftMillis, driftDur)
	if derr != nil {
		entry.Error = derr.Error()
	} else {
		entry.Drift = drift
	}
	m.sinceAudit++
	breached := drift != nil && drift.Breached
	if breached {
		m.mu.Lock()
		m.breaches++
		m.mu.Unlock()
		m.reg.metrics.bump(&m.reg.metrics.driftBreaches, 1)
		m.alert(Alert{
			Kind:    AlertDriftBreach,
			Window:  w.index,
			Message: fmt.Sprintf("drift vs baseline breached thresholds (max PSI %.3f > %.2f or max KS %.3f > %.2f); forcing re-audit", drift.MaxPSI, m.spec.Drift.PSIThreshold, drift.MaxKS, m.spec.Drift.KSThreshold),
			Drift:   drift,
		})
	}
	if breached || m.sinceAudit >= m.spec.AuditEvery {
		// The FACT audit trains on the flat window, so it is
		// materialized here, only when an audit actually fires.
		// The chunk-derived hash keys the engine's report cache without
		// an O(rows · cols) re-hash of the window.
		af, aerr := m.windowFrame()
		if aerr != nil {
			entry.Error = aerr.Error()
			m.reg.metrics.bump(&m.reg.metrics.auditFailures, 1)
		} else {
			m.audit(af, &entry, m.lastHash)
		}
		m.sinceAudit = 0
	}
	m.appendHistory(entry)
}

// setLastWindow records the latest auditable window as the re-audit
// target. f is nil when the window scored without materializing;
// windowFrame rebuilds the flat frame from the retained chunks on
// first need. Callers hold procMu.
func (m *Monitor) setLastWindow(index int64, chunks []Chunk, f *frame.Frame) {
	m.lastFrame = f
	m.lastChunks = chunks
	m.lastHash = windowDataHash(chunks)
	m.mu.Lock()
	m.lastWindow = index
	m.mu.Unlock()
}

// windowFrame returns the latest auditable window's flat frame,
// materializing it from the retained chunks on first need and
// memoizing the result. Callers hold procMu.
func (m *Monitor) windowFrame() (*frame.Frame, error) {
	if m.lastFrame != nil {
		return m.lastFrame, nil
	}
	m.mu.Lock()
	index := m.lastWindow
	m.mu.Unlock()
	f, err := materializeChunks(m.lastChunks, index)
	if err != nil {
		return nil, err
	}
	m.lastFrame = f
	return f, nil
}

// skipWindow records a window that is not graded: below MinRows, or
// (err set) not materializable. Callers hold procMu.
func (m *Monitor) skipWindow(entry WindowEntry, err error) {
	if err != nil {
		entry.Error = err.Error()
	}
	entry.Skipped = true
	m.reg.metrics.bump(&m.reg.metrics.windowsSkipped, 1)
	m.appendHistory(entry)
}

// audit runs one FACT audit of f through the shared engine, filling the
// entry's report/grade and firing grade-regression or failure alerts.
// dataHash, when non-empty, is f's known content hash (a dataset
// registry ref) and lets the engine skip re-hashing f for its report
// cache. Callers hold m.procMu; m.mu is taken only for the state
// updates, so readers never wait on the engine or on sink delivery.
func (m *Monitor) audit(f *frame.Frame, entry *WindowEntry, dataHash string) {
	name := fmt.Sprintf("%s/window-%05d", m.spec.Name, entry.Window)
	if entry.Window < 0 {
		name = m.spec.Name + "/baseline"
	}
	req := &serve.Request{
		Tenant:   m.spec.Tenant,
		Dataset:  name,
		Data:     f,
		DataHash: dataHash,
		Policy:   m.spec.Policy,
		Spec:     m.spec.Train,
		Seed:     m.spec.Seed,
		// Window audits are system work scheduled on the tenant's
		// behalf, not tenant submissions: the system-monitor class keeps
		// them off the tenant's token bucket, so a tight rate_per_sec
		// cannot starve the tenant's own drift scoring.
		Class: serve.ClassSystem,
	}
	spec, err := m.reg.cfg.Engine.AuditJob(req)
	var id string
	if err == nil {
		id, err = m.reg.cfg.Engine.Submit(spec)
	}
	if err == nil {
		var js serve.JobStatus
		js, err = m.reg.cfg.Engine.Wait(context.Background(), id)
		if err == nil && js.Status == serve.StatusFailed {
			err = fmt.Errorf("%s", js.Error)
		}
		if err == nil {
			entry.Audited = true
			entry.Report = js.Report
			grade := js.Report.Overall
			entry.Grade = &grade

			m.mu.Lock()
			prev := m.lastGrade
			regressed := prev != nil && grade < *prev
			if regressed {
				m.regressions++
			}
			m.audits++
			m.lastGrade = &grade
			m.mu.Unlock()

			m.reg.metrics.bump(&m.reg.metrics.windowsAudited, 1)
			if regressed {
				entry.Regressed = true
				m.reg.metrics.bump(&m.reg.metrics.gradeRegressions, 1)
				m.alert(Alert{
					Kind:    AlertGradeRegression,
					Window:  entry.Window,
					Message: fmt.Sprintf("window %d regressed %s → %s", entry.Window, *prev, grade),
					From:    prev,
					To:      &grade,
				})
			}
			return
		}
	}
	entry.Error = err.Error()
	m.reg.metrics.bump(&m.reg.metrics.auditFailures, 1)
	m.alert(Alert{
		Kind:    AlertAuditFailure,
		Window:  entry.Window,
		Message: fmt.Sprintf("window %d audit failed: %v", entry.Window, err),
	})
}

// alert stamps monitor identity onto a and fans it out.
func (m *Monitor) alert(a Alert) {
	a.Monitor = m.id
	a.Name = m.spec.Name
	m.reg.deliver(a, m.spec.Sinks)
}

// appendHistory records one entry in the bounded ring.
func (m *Monitor) appendHistory(e WindowEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.appendLocked(e)
}

// appendLocked appends under the ring bound; callers hold m.mu.
func (m *Monitor) appendLocked(e WindowEntry) {
	m.history = append(m.history, e)
	if over := len(m.history) - m.spec.History; over > 0 {
		m.history = append([]WindowEntry(nil), m.history[over:]...)
	}
}

// recordReaudit files a re-audit entry, coalescing it into the previous
// entry when that entry is a scheduled re-audit of the same window with
// the same outcome — a quiet stream's heartbeat confirms liveness via
// the Reaudits count instead of flooding the ring.
func (m *Monitor) recordReaudit(e WindowEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.history); e.Scheduled && n > 0 {
		last := m.history[n-1]
		if last.Scheduled && last.Window == e.Window && last.Error == e.Error && gradeEq(last.Grade, e.Grade) {
			e.Reaudits = last.Reaudits + 1
			m.history[n-1] = e
			return
		}
	}
	m.appendLocked(e)
}

// gradeEq compares two optional grades.
func gradeEq(a, b *policy.Grade) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// reauditLoop drives the re-audit schedule until the monitor stops.
func (m *Monitor) reauditLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.Reaudit(true)
		}
	}
}

func (m *Monitor) stopSchedule() {
	m.stopOnce.Do(func() { close(m.stop) })
}
