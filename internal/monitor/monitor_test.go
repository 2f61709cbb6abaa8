package monitor

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/policy"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/stream"
	"github.com/responsible-data-science/rds/internal/tenant"
)

func newTestEngine(t testing.TB) *serve.Engine {
	t.Helper()
	e := serve.NewEngine(serve.Config{Workers: 2, QueueSize: 32})
	t.Cleanup(e.Close)
	return e
}

func newTestRegistry(t testing.TB, sinks ...Sink) *Registry {
	t.Helper()
	r, err := NewRegistry(RegistryConfig{Engine: newTestEngine(t), Sinks: sinks})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	t.Cleanup(r.Close)
	return r
}

// captureSink records alerts for assertions.
type captureSink struct {
	mu     sync.Mutex
	alerts []Alert
}

func (c *captureSink) Deliver(_ context.Context, a Alert) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.alerts = append(c.alerts, a)
	return nil
}

func (c *captureSink) kinds() []AlertKind {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]AlertKind, 0, len(c.alerts))
	for _, a := range c.alerts {
		out = append(out, a.Kind)
	}
	return out
}

func creditSpec(name string) Spec {
	return Spec{
		Name:   name,
		Policy: serve.DefaultPolicy(),
		Train:  core.TrainSpec{Target: "approved", Sensitive: "group", Protected: "B", Reference: "A"},
		Window: WindowConfig{WidthMS: 100},
	}
}

func TestRegistryLifecycle(t *testing.T) {
	r := newTestRegistry(t)
	m, err := r.Register(creditSpec("loans"))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := r.Register(creditSpec("loans")); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := r.Register(Spec{}); err == nil {
		t.Error("nameless spec accepted")
	}
	if got := len(r.ListAs(tenant.Default)); got != 1 {
		t.Errorf("List() len = %d, want 1", got)
	}
	if _, ok := r.Get(m.ID()); !ok {
		t.Errorf("Get(%q) missing", m.ID())
	}
	if !r.Delete(m.ID()) {
		t.Error("Delete returned false for live monitor")
	}
	if r.Delete(m.ID()) {
		t.Error("Delete returned true for removed monitor")
	}
	if got := r.Metrics().MonitorsTotal; got != 1 {
		t.Errorf("MonitorsTotal = %d, want 1", got)
	}
	r.Close()
	if _, err := r.Register(creditSpec("late")); err == nil {
		t.Error("Register accepted after Close")
	}
}

func TestMonitorAuditCadence(t *testing.T) {
	r := newTestRegistry(t)
	spec := creditSpec("cadence")
	spec.AuditEvery = 3
	m, err := r.Register(spec)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	data := creditFrame(t, 400, 0, 0.35, 1)
	for i := int64(0); i < 4; i++ {
		m.Ingest(stream.Arrival{TimeMS: i * 100, Rows: data})
	}
	m.Ingest(stream.Arrival{TimeMS: 400}) // heartbeat closes window 3
	hist := m.History()
	if len(hist) != 4 {
		t.Fatalf("history len = %d, want 4", len(hist))
	}
	wantAudited := []bool{true, false, false, true} // baseline, then every 3rd
	for i, e := range hist {
		if e.Audited != wantAudited[i] {
			t.Errorf("window %d audited = %v, want %v", e.Window, e.Audited, wantAudited[i])
		}
	}
	if !hist[0].Baseline {
		t.Error("first audited window not pinned as baseline")
	}
	if hist[1].Drift == nil || hist[1].Drift.Breached {
		t.Errorf("same-distribution window drift = %+v, want quiet non-nil", hist[1].Drift)
	}
	s := m.Status()
	if !s.BaselinePinned || s.Audits != 2 || s.Windows != 4 {
		t.Errorf("status = %+v, want pinned baseline, 2 audits, 4 windows", s)
	}
}

func TestMonitorDriftForcesReauditAndRegressionAlert(t *testing.T) {
	sink := &captureSink{}
	r := newTestRegistry(t, sink)
	spec := creditSpec("drifting")
	spec.AuditEvery = 1000 // only drift can force a post-baseline audit
	m, err := r.Register(spec)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	m.Ingest(stream.Arrival{TimeMS: 0, Rows: creditFrame(t, 2000, 0, 0.35, 1)})
	m.Ingest(stream.Arrival{TimeMS: 100, Rows: creditFrame(t, 2000, 3, 0.7, 2)})
	m.Flush()

	hist := m.History()
	if len(hist) != 2 {
		t.Fatalf("history len = %d, want 2", len(hist))
	}
	base, drifted := hist[0], hist[1]
	if !base.Audited || base.Grade == nil || *base.Grade != policy.Green {
		t.Fatalf("baseline entry = %+v, want audited Green", base)
	}
	if drifted.Drift == nil || !drifted.Drift.Breached {
		t.Fatalf("drifted window drift = %+v, want breach", drifted.Drift)
	}
	if !drifted.Audited {
		t.Error("drift breach did not force an off-cadence audit")
	}
	if drifted.Grade == nil || *drifted.Grade != policy.Red {
		t.Errorf("drifted grade = %v, want RED", drifted.Grade)
	}
	if !drifted.Regressed {
		t.Error("grade regression not recorded on the drifted entry")
	}

	kinds := sink.kinds()
	if len(kinds) != 2 || kinds[0] != AlertDriftBreach || kinds[1] != AlertGradeRegression {
		t.Errorf("alert kinds = %v, want [drift_breach grade_regression]", kinds)
	}
	snap := r.Metrics()
	if snap.DriftBreaches != 1 || snap.GradeRegressions != 1 || snap.AlertsDelivered != 2 {
		t.Errorf("metrics = %+v, want 1 breach, 1 regression, 2 alerts delivered", snap)
	}
}

// TestMonitorIngestRejectsNegativeTime: the whole batch is rejected
// with an error before any window state changes — no rows counted, no
// windows opened, no panic, for any int64 time down to MinInt64.
func TestMonitorIngestRejectsNegativeTime(t *testing.T) {
	r := newTestRegistry(t)
	m, err := r.Register(creditSpec("neg-time"))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	for _, tm := range []int64{-1, -60000, math.MinInt64} {
		err := m.Ingest(
			stream.Arrival{TimeMS: 0, Rows: rowsFrame(t, 1)},
			stream.Arrival{TimeMS: tm, Rows: rowsFrame(t, 2)},
		)
		if err == nil {
			t.Fatalf("Ingest accepted arrival at t=%d", tm)
		}
	}
	s := m.Status()
	if s.RowsIngested != 0 || s.Windows != 0 || len(m.History()) != 0 {
		t.Errorf("rejected batches mutated state: %+v", s)
	}
	if err := m.Ingest(stream.Arrival{TimeMS: 0, Rows: rowsFrame(t, 1)}); err != nil {
		t.Errorf("valid arrival rejected after bad batches: %v", err)
	}
}

// TestMonitorBaselineProfileAndLatencyGauges: pinning a baseline builds
// its drift profile exactly once, the per-window drift latency lands in
// history entries and the plane gauges, and the profile summary is
// readable without touching the processing lock.
func TestMonitorBaselineProfileAndLatencyGauges(t *testing.T) {
	r := newTestRegistry(t)
	spec := creditSpec("profiled")
	spec.AuditEvery = 1000
	m, err := r.Register(spec)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if m.BaselineProfileInfo() != nil {
		t.Error("profile info present before a baseline is pinned")
	}
	m.Ingest(stream.Arrival{TimeMS: 0, Rows: creditFrame(t, 1000, 0, 0.35, 1)})
	m.Ingest(stream.Arrival{TimeMS: 100, Rows: creditFrame(t, 1000, 0, 0.35, 2)})
	m.Ingest(stream.Arrival{TimeMS: 200, Rows: creditFrame(t, 1000, 0, 0.35, 3)})
	m.Flush()

	info := m.BaselineProfileInfo()
	if info == nil {
		t.Fatal("no profile info after baseline pin")
	}
	if info.Rows != 1000 || info.Columns == 0 || info.NumericColumns == 0 || info.CategoricalColumns == 0 {
		t.Errorf("profile info = %+v, want the credit schema profiled", info)
	}
	if got := m.Status().ProfileBuildMillis; got != info.BuildMillis {
		t.Errorf("Status().ProfileBuildMillis = %v, want %v", got, info.BuildMillis)
	}
	hist := m.History()
	if len(hist) != 3 {
		t.Fatalf("history len = %d, want 3", len(hist))
	}
	if hist[0].DriftMillis != 0 {
		t.Errorf("baseline entry DriftMillis = %v, want 0", hist[0].DriftMillis)
	}
	for _, e := range hist[1:] {
		if e.Drift == nil || e.DriftMillis < 0 {
			t.Errorf("window %d: drift=%v drift_millis=%v, want scored with non-negative latency", e.Window, e.Drift, e.DriftMillis)
		}
	}
	snap := r.Metrics()
	if snap.BaselineProfiles != 1 || snap.DriftWindows != 2 {
		t.Errorf("gauges = %+v, want 1 profile built and 2 windows scored", snap)
	}
	if snap.ProfileBuildMillis < 0 || snap.DriftMillis < 0 {
		t.Errorf("latency gauges negative: %+v", snap)
	}
}

func TestMonitorSkipsWindowsBelowMinRows(t *testing.T) {
	r := newTestRegistry(t)
	spec := creditSpec("sparse")
	spec.Window.MinRows = 10
	m, err := r.Register(spec)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	m.Ingest(stream.Arrival{TimeMS: 0, Rows: rowsFrame(t, 1, 2, 3)})
	m.Ingest(stream.Arrival{TimeMS: 150}) // closes window 0
	hist := m.History()
	if len(hist) != 1 || !hist[0].Skipped || hist[0].Audited {
		t.Fatalf("history = %+v, want one skipped unaudited entry", hist)
	}
	if r.Metrics().WindowsSkipped != 1 {
		t.Errorf("WindowsSkipped = %d, want 1", r.Metrics().WindowsSkipped)
	}
	if m.Status().BaselinePinned {
		t.Error("skipped window pinned as baseline")
	}
}

func TestMonitorHistoryRingBounded(t *testing.T) {
	r := newTestRegistry(t)
	spec := creditSpec("ring")
	spec.Window.MinRows = 100 // every window skips; no audits, fast
	spec.History = 3
	m, err := r.Register(spec)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	for i := int64(0); i < 6; i++ {
		m.Ingest(stream.Arrival{TimeMS: i * 100, Rows: rowsFrame(t, 1)})
	}
	m.Ingest(stream.Arrival{TimeMS: 600})
	hist := m.History()
	if len(hist) != 3 {
		t.Fatalf("history len = %d, want ring bound 3", len(hist))
	}
	if hist[0].Window != 3 || hist[2].Window != 5 {
		t.Errorf("ring kept windows %d..%d, want 3..5", hist[0].Window, hist[2].Window)
	}
}

func TestMonitorReauditAndSchedule(t *testing.T) {
	r := newTestRegistry(t)
	m, err := r.Register(creditSpec("reaudit"))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	m.Reaudit(true) // no window yet: must be a no-op
	if len(m.History()) != 0 {
		t.Fatal("Reaudit before any window produced history")
	}
	m.Ingest(stream.Arrival{TimeMS: 0, Rows: creditFrame(t, 400, 0, 0.35, 1)})
	m.Ingest(stream.Arrival{TimeMS: 150})
	m.Reaudit(true)
	hist := m.History()
	if len(hist) != 2 {
		t.Fatalf("history len = %d, want baseline + re-audit", len(hist))
	}
	re := hist[1]
	if !re.Scheduled || !re.Audited || re.Window != 0 || re.Reaudits != 1 {
		t.Errorf("re-audit entry = %+v, want scheduled audited window 0 with Reaudits 1", re)
	}
	if r.Metrics().ScheduledReaudits != 1 {
		t.Errorf("ScheduledReaudits = %d, want 1", r.Metrics().ScheduledReaudits)
	}

	// A quiet stream's heartbeat coalesces: repeated identical
	// scheduled re-audits refresh one entry instead of flooding the
	// bounded ring.
	m.Reaudit(true)
	m.Reaudit(true)
	hist = m.History()
	if len(hist) != 2 {
		t.Fatalf("history len after repeated re-audits = %d, want 2 (coalesced)", len(hist))
	}
	if hist[1].Reaudits != 3 {
		t.Errorf("coalesced Reaudits = %d, want 3", hist[1].Reaudits)
	}
	if r.Metrics().ScheduledReaudits != 3 {
		t.Errorf("ScheduledReaudits = %d, want 3", r.Metrics().ScheduledReaudits)
	}
}

// TestMonitorStatusNotBlockedBySlowSink pins the lock split: audits and
// alert delivery run under the processing lock only, so the status and
// history endpoints answer while a webhook delivery is stuck.
func TestMonitorStatusNotBlockedBySlowSink(t *testing.T) {
	sink := &blockingSink{entered: make(chan struct{}), release: make(chan struct{})}
	r := newTestRegistry(t, sink)
	spec := creditSpec("slow-sink")
	spec.AuditEvery = 1000
	m, err := r.Register(spec)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Ingest(stream.Arrival{TimeMS: 0, Rows: creditFrame(t, 400, 0, 0.35, 1)})
		m.Ingest(stream.Arrival{TimeMS: 100, Rows: creditFrame(t, 400, 0, 0.8, 2)}) // group-mix drift
		m.Ingest(stream.Arrival{TimeMS: 200})                                       // closes the drifted window -> breach -> alert blocks
	}()
	select {
	case <-sink.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("drift alert never reached the sink")
	}
	statusDone := make(chan Summary, 1)
	go func() {
		statusDone <- m.Status()
		m.History()
	}()
	select {
	case s := <-statusDone:
		if s.DriftBreaches != 1 {
			t.Errorf("status during blocked delivery: breaches = %d, want 1", s.DriftBreaches)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Status blocked behind a slow alert sink")
	}
	close(sink.release)
	<-done
}

// blockingSink signals entry and blocks delivery until released.
type blockingSink struct {
	entered chan struct{}
	release chan struct{}
}

func (s *blockingSink) Deliver(_ context.Context, _ Alert) error {
	s.entered <- struct{}{}
	<-s.release
	return nil
}

func TestMonitorScheduledReauditLoop(t *testing.T) {
	r := newTestRegistry(t)
	spec := creditSpec("ticker")
	spec.ReauditEvery = 20 * time.Millisecond
	m, err := r.Register(spec)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	m.Ingest(stream.Arrival{TimeMS: 0, Rows: creditFrame(t, 400, 0, 0.35, 1)})
	m.Ingest(stream.Arrival{TimeMS: 150})
	deadline := time.Now().Add(5 * time.Second)
	for r.Metrics().ScheduledReaudits == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if r.Metrics().ScheduledReaudits == 0 {
		t.Fatal("scheduled re-audit never fired")
	}
	r.Delete(m.ID()) // stops the loop; -race would flag leaks touching state
}

func TestMonitorAuditFailureAlert(t *testing.T) {
	sink := &captureSink{}
	r := newTestRegistry(t, sink)
	spec := creditSpec("broken")
	spec.Train.Target = "no_such_column"
	m, err := r.Register(spec)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	m.Ingest(stream.Arrival{TimeMS: 0, Rows: creditFrame(t, 400, 0, 0.35, 1)})
	m.Ingest(stream.Arrival{TimeMS: 150})
	hist := m.History()
	if len(hist) != 1 || hist[0].Error == "" || hist[0].Audited {
		t.Fatalf("history = %+v, want one failed entry", hist)
	}
	if kinds := sink.kinds(); len(kinds) != 1 || kinds[0] != AlertAuditFailure {
		t.Errorf("alert kinds = %v, want [audit_failure]", kinds)
	}
	if m.Status().BaselinePinned {
		t.Error("failed audit pinned a baseline")
	}
	if r.Metrics().AuditFailures != 1 {
		t.Errorf("AuditFailures = %d, want 1", r.Metrics().AuditFailures)
	}
}

func TestMonitorConcurrentIngestAndStatus(t *testing.T) {
	r := newTestRegistry(t)
	spec := creditSpec("racy")
	spec.Window.MinRows = 1000 // skip audits; exercise locking only
	m, err := r.Register(spec)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int64(0); i < 50; i++ {
				m.Ingest(stream.Arrival{TimeMS: i * 10, Rows: rowsFrame(t, float64(g))})
				m.Status()
				m.History()
			}
		}(g)
	}
	wg.Wait()
	if got := m.Status().RowsIngested; got != 200 {
		t.Errorf("RowsIngested = %d, want 200", got)
	}
}

func TestRegistryNeedsEngine(t *testing.T) {
	if _, err := NewRegistry(RegistryConfig{}); err == nil {
		t.Fatal("NewRegistry accepted nil engine")
	}
}
