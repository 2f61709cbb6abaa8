package monitor

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/responsible-data-science/rds/internal/httpx"
	"github.com/responsible-data-science/rds/internal/policy"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// newTestService stands up the full two-plane service the way
// cmd/rds-serve wires it: audit API + monitor API + merged metrics.
func newTestService(t *testing.T) (*httptest.Server, *Registry) {
	t.Helper()
	engine := serve.NewEngine(serve.Config{Workers: 2, QueueSize: 32})
	t.Cleanup(engine.Close)
	reg, err := NewRegistry(RegistryConfig{Engine: engine})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	t.Cleanup(reg.Close)
	handler := serve.NewHandler(engine)
	handler.MonitorMetrics = func() any { return reg.Metrics() }
	srv := httptest.NewServer(handler.Mount(NewHandler(reg).Routes()))
	t.Cleanup(srv.Close)
	return srv, reg
}

// doJSON posts body to url and decodes the JSON response into out,
// asserting the expected status and JSON content type.
func doJSON(t *testing.T, method, url, body string, wantStatus int, out any) {
	t.Helper()
	doJSONAs(t, "", method, url, body, wantStatus, out)
}

// doJSONAs is doJSON with the X-RDS-Tenant header set to ten (none
// when empty).
func doJSONAs(t *testing.T, ten, method, url, body string, wantStatus int, out any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("building %s %s: %v", method, url, err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if ten != "" {
		req.Header.Set(httpx.TenantHeader, ten)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s = %d, want %d: %s", method, url, resp.StatusCode, wantStatus, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s %s Content-Type = %q, want application/json", method, url, ct)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s %s response: %v\n%s", method, url, err, raw)
		}
	}
}

// TestHTTPMonitorLifecycle is the end-to-end acceptance scenario: a
// monitor over a drifting synthetic credit stream observes a Green
// baseline, a PSI/KS drift breach that forces a re-audit, a grade
// regression alert delivered to a webhook, and full window history.
func TestHTTPMonitorLifecycle(t *testing.T) {
	srv, _ := newTestService(t)

	var webhookMu sync.Mutex
	var received []Alert
	webhook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var a Alert
		if err := json.NewDecoder(r.Body).Decode(&a); err != nil {
			t.Errorf("webhook payload: %v", err)
		}
		webhookMu.Lock()
		received = append(received, a)
		webhookMu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	defer webhook.Close()

	// Register: drift is the only thing that can trigger a
	// post-baseline audit (audit_every is huge), so an automatic
	// re-audit proves the breach fired.
	var sum Summary
	doJSON(t, http.MethodPost, srv.URL+"/v1/monitors", fmt.Sprintf(
		`{"name":"credit-live","window_ms":60000,"audit_every":1000,"webhook":%q}`, webhook.URL),
		http.StatusCreated, &sum)
	if sum.ID == "" || sum.Name != "credit-live" {
		t.Fatalf("registration summary = %+v", sum)
	}
	base := srv.URL + "/v1/monitors/" + sum.ID

	// Minute 0: a fair population. The window stays open (nothing past
	// its end yet), so no audit has happened.
	doJSON(t, http.MethodPost, base+"/ingest",
		`{"time_ms":0,"synthetic":{"n":2000,"bias":0}}`, http.StatusOK, &sum)
	if sum.BaselinePinned {
		t.Fatal("baseline pinned before the first window closed")
	}

	// Minute 1: the population drifts — protected-group share doubles
	// and heavy label bias appears. This arrival closes the baseline
	// window (audited Green, pinned); the flush closes the drifted
	// window, whose PSI breach forces the off-cadence audit.
	doJSON(t, http.MethodPost, base+"/ingest",
		`{"time_ms":60000,"synthetic":{"n":2000,"bias":3,"group_b_fraction":0.7,"seed":2},"flush":true}`,
		http.StatusOK, &sum)
	if !sum.BaselinePinned || sum.Audits != 2 || sum.DriftBreaches != 1 || sum.Regressions != 1 {
		t.Fatalf("post-drift summary = %+v, want pinned baseline, 2 audits, 1 breach, 1 regression", sum)
	}
	if sum.BaselineGrade == nil || *sum.BaselineGrade != policy.Green {
		t.Errorf("baseline grade = %v, want GREEN", sum.BaselineGrade)
	}
	if sum.LastGrade == nil || *sum.LastGrade != policy.Red {
		t.Errorf("last grade = %v, want RED", sum.LastGrade)
	}

	// History shows the full transition, plus the pinned baseline's
	// precomputed drift profile and per-window drift latency.
	var hist struct {
		Monitor         string        `json:"monitor"`
		History         []WindowEntry `json:"history"`
		BaselineProfile *ProfileInfo  `json:"baseline_profile"`
	}
	doJSON(t, http.MethodGet, base+"/history", "", http.StatusOK, &hist)
	if len(hist.History) != 2 {
		t.Fatalf("history len = %d, want 2", len(hist.History))
	}
	if hist.BaselineProfile == nil || hist.BaselineProfile.Rows != 2000 || hist.BaselineProfile.Columns == 0 {
		t.Errorf("baseline_profile = %+v, want the pinned 2000-row window profiled", hist.BaselineProfile)
	}
	if hist.History[1].DriftMillis < 0 {
		t.Errorf("drifted entry drift_millis = %v, want >= 0", hist.History[1].DriftMillis)
	}
	b, d := hist.History[0], hist.History[1]
	if !b.Baseline || !b.Audited || b.Grade == nil || *b.Grade != policy.Green {
		t.Errorf("baseline entry = %+v, want audited Green baseline", b)
	}
	if d.Drift == nil || !d.Drift.Breached || !d.Audited || !d.Regressed {
		t.Errorf("drifted entry = %+v, want breached, audited, regressed", d)
	}
	if d.Grade == nil || *d.Grade != policy.Red {
		t.Errorf("drifted grade = %v, want RED", d.Grade)
	}
	if b.Report == nil || d.Report == nil {
		t.Error("history entries missing FACT reports")
	}

	// The webhook received the drift breach then the grade regression.
	webhookMu.Lock()
	kinds := make([]AlertKind, 0, len(received))
	for _, a := range received {
		kinds = append(kinds, a.Kind)
	}
	webhookMu.Unlock()
	if len(kinds) != 2 || kinds[0] != AlertDriftBreach || kinds[1] != AlertGradeRegression {
		t.Fatalf("webhook alert kinds = %v, want [drift_breach grade_regression]", kinds)
	}
	webhookMu.Lock()
	reg := received[1]
	webhookMu.Unlock()
	if reg.From == nil || reg.To == nil || *reg.From != policy.Green || *reg.To != policy.Red {
		t.Errorf("regression alert transition = %v→%v, want GREEN→RED", reg.From, reg.To)
	}

	// /metrics carries the engine fields at the top level and the
	// monitoring gauges under "monitor".
	var metrics map[string]any
	doJSON(t, http.MethodGet, srv.URL+"/metrics", "", http.StatusOK, &metrics)
	if _, ok := metrics["jobs_completed"]; !ok {
		t.Error("/metrics lost the engine's top-level fields")
	}
	if _, ok := metrics["latency_window"]; !ok {
		t.Error("/metrics missing the documented latency_window field")
	}
	mon, ok := metrics["monitor"].(map[string]any)
	if !ok {
		t.Fatalf("/metrics monitor section = %T, want object", metrics["monitor"])
	}
	for _, field := range []string{"monitors_active", "windows_materialized", "drift_breaches", "grade_regressions", "alerts_delivered",
		"baseline_profiles_built", "profile_build_millis_total", "drift_windows_scored", "drift_millis_total"} {
		if _, ok := mon[field]; !ok {
			t.Errorf("/metrics monitor section missing %q", field)
		}
	}
	if got := mon["drift_breaches"].(float64); got != 1 {
		t.Errorf("monitor drift_breaches = %v, want 1", got)
	}

	// Listing, status, and deletion.
	var list []Summary
	doJSON(t, http.MethodGet, srv.URL+"/v1/monitors", "", http.StatusOK, &list)
	if len(list) != 1 || list[0].ID != sum.ID {
		t.Fatalf("list = %+v, want the one registered monitor", list)
	}
	doJSON(t, http.MethodDelete, base, "", http.StatusOK, nil)
	doJSON(t, http.MethodGet, base, "", http.StatusNotFound, nil)
}

func TestHTTPMonitorValidation(t *testing.T) {
	srv, reg := newTestService(t)
	cases := []struct {
		name, method, path, body string
		wantStatus               int
	}{
		{"nameless register", http.MethodPost, "/v1/monitors", `{}`, http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/monitors", `{"name":"x","nope":1}`, http.StatusBadRequest},
		{"slide past width", http.MethodPost, "/v1/monitors", `{"name":"x","window_ms":100,"slide_ms":200}`, http.StatusBadRequest},
		{"unknown monitor status", http.MethodGet, "/v1/monitors/mon-999999", "", http.StatusNotFound},
		{"unknown monitor history", http.MethodGet, "/v1/monitors/mon-999999/history", "", http.StatusNotFound},
		{"unknown monitor ingest", http.MethodPost, "/v1/monitors/mon-999999/ingest", `{"csv":"a\n1\n"}`, http.StatusNotFound},
		{"bad method on collection", http.MethodDelete, "/v1/monitors", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doJSON(t, tc.method, srv.URL+tc.path, tc.body, tc.wantStatus, nil)
		})
	}

	// drift.shards is not a field (GOMAXPROCS sets the shard count): a
	// client that sends it gets a 400 naming the field.
	var rejected struct {
		Error string `json:"error"`
	}
	doJSON(t, http.MethodPost, srv.URL+"/v1/monitors", `{"name":"x","drift":{"shards":4}}`, http.StatusBadRequest, &rejected)
	if !strings.Contains(rejected.Error, `"shards"`) {
		t.Errorf("drift.shards rejection %q does not name the field", rejected.Error)
	}

	// Ingest source must be exactly one of csv/synthetic.
	m, err := reg.Register(creditSpec("src"))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	for _, body := range []string{`{}`, `{"csv":"a\n1\n","synthetic":{"n":10}}`} {
		doJSON(t, http.MethodPost, srv.URL+"/v1/monitors/"+m.ID()+"/ingest", body, http.StatusBadRequest, nil)
	}

	// Negative time_ms — the regression that used to panic the windower
	// ("makeslice: cap out of range") or silently mis-assign rows into
	// window 0 — answers 400 for any int64, down to MinInt64.
	for _, body := range []string{
		`{"time_ms":-1,"csv":"a\n1\n"}`,
		`{"time_ms":-60000,"csv":"a\n1\n"}`,
		`{"time_ms":-9223372036854775808,"csv":"a\n1\n"}`,
	} {
		doJSON(t, http.MethodPost, srv.URL+"/v1/monitors/"+m.ID()+"/ingest", body, http.StatusBadRequest, nil)
	}
	if got := m.Status(); got.RowsIngested != 0 || got.Windows != 0 {
		t.Errorf("rejected negative-time ingest mutated state: %+v", got)
	}

	// An ingest is one arrival: batch_rows and gap_ms are not fields,
	// and a client that sends either gets a 400 naming it.
	for _, field := range []string{"batch_rows", "gap_ms"} {
		body := fmt.Sprintf(`{"time_ms":0,"csv":"a\n1\n",%q:10}`, field)
		doJSON(t, http.MethodPost, srv.URL+"/v1/monitors/"+m.ID()+"/ingest", body, http.StatusBadRequest, &rejected)
		if !strings.Contains(rejected.Error, strconv.Quote(field)) {
			t.Errorf("%s rejection %q does not name the field", field, rejected.Error)
		}
	}
}

// TestHTTPIngestHeartbeat: a header-only CSV ingest is a heartbeat, as
// an empty arrival is in process: it answers 200, adds no rows, and
// closes the windows that end by its time_ms.
func TestHTTPIngestHeartbeat(t *testing.T) {
	srv, reg := newTestService(t)
	m, err := reg.Register(creditSpec("heartbeat"))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	var buf strings.Builder
	if err := creditFrame(t, 300, 0, 0.35, 1).WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	header, _, _ := strings.Cut(buf.String(), "\n")
	ingest := func(timeMS int64, csv string) Summary {
		t.Helper()
		body, err := json.Marshal(IngestWire{TimeMS: timeMS, CSV: csv})
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		var sum Summary
		doJSON(t, http.MethodPost, srv.URL+"/v1/monitors/"+m.ID()+"/ingest", string(body), http.StatusOK, &sum)
		return sum
	}

	if sum := ingest(0, buf.String()); sum.Windows != 0 || sum.RowsIngested != 300 {
		t.Fatalf("after the first batch: %+v, want window 0 open with 300 rows", sum)
	}
	sum := ingest(100, header+"\n")
	if sum.Windows != 1 || sum.RowsIngested != 300 || !sum.BaselinePinned {
		t.Fatalf("after the heartbeat: %+v, want window 0 closed and pinned, no rows added", sum)
	}
	if hist := m.History(); len(hist) != 1 || !hist[0].Baseline || hist[0].Rows != 300 {
		t.Errorf("history = %+v, want the baseline window of 300 rows", hist)
	}
}

func TestWebhookSinkRetriesWithBackoff(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		attempts++
		n := attempts
		mu.Unlock()
		if n == 1 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer flaky.Close()

	sink := &WebhookSink{URL: flaky.URL, Backoff: time.Millisecond}
	if err := sink.Deliver(context.Background(), Alert{Monitor: "m", Kind: AlertDriftBreach}); err != nil {
		t.Fatalf("Deliver with one transient failure: %v", err)
	}
	mu.Lock()
	got := attempts
	mu.Unlock()
	if got != 2 {
		t.Errorf("attempts = %d, want 2 (one retry)", got)
	}
}

func TestWebhookSinkGivesUpAfterMaxAttempts(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		attempts++
		mu.Unlock()
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer down.Close()

	sink := &WebhookSink{URL: down.URL, MaxAttempts: 3, Backoff: time.Millisecond}
	if err := sink.Deliver(context.Background(), Alert{Monitor: "m", Kind: AlertAuditFailure}); err == nil {
		t.Fatal("Deliver succeeded against an always-failing webhook")
	}
	mu.Lock()
	got := attempts
	mu.Unlock()
	if got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
}

// TestHTTPMonitorTenantScoping pins the monitoring plane's
// multi-tenant HTTP contract: registrations owned by the header's
// tenant, tenant-scoped lists, cross-tenant ids answering 404 on every
// subresource, and per-tenant monitor-count quotas answering 429.
func TestHTTPMonitorTenantScoping(t *testing.T) {
	engine := serve.NewEngine(serve.Config{Workers: 2, QueueSize: 32})
	t.Cleanup(engine.Close)
	reg, err := NewRegistry(RegistryConfig{
		Engine: engine,
		Quotas: func(id string) tenant.Quotas {
			if id == "acme" {
				return tenant.Quotas{MaxMonitors: 1}
			}
			return tenant.Quotas{}
		},
	})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	t.Cleanup(reg.Close)
	handler := serve.NewHandler(engine)
	srv := httptest.NewServer(handler.Mount(NewHandler(reg).Routes()))
	t.Cleanup(srv.Close)

	var sum Summary
	doJSONAs(t, "acme", http.MethodPost, srv.URL+"/v1/monitors",
		`{"name":"prod","window_ms":60000}`, http.StatusCreated, &sum)
	if sum.Tenant != "acme" || sum.ID == "" {
		t.Fatalf("registration summary = %+v, want tenant acme", sum)
	}

	// acme is at its MaxMonitors of 1: the next registration is 429.
	doJSONAs(t, "acme", http.MethodPost, srv.URL+"/v1/monitors",
		`{"name":"prod-2","window_ms":60000}`, http.StatusTooManyRequests, nil)
	// Other tenants are unaffected by acme's quota.
	var other Summary
	doJSONAs(t, "beta", http.MethodPost, srv.URL+"/v1/monitors",
		`{"name":"prod","window_ms":60000}`, http.StatusCreated, &other)
	// The body names no tenant: "tenant" is an unknown field.
	doJSON(t, http.MethodPost, srv.URL+"/v1/monitors",
		`{"name":"prod","window_ms":60000,"tenant":"acme"}`, http.StatusBadRequest, nil)

	// Lists are tenant-scoped; names only need to be unique per tenant.
	var sums []Summary
	doJSONAs(t, "acme", http.MethodGet, srv.URL+"/v1/monitors", "", http.StatusOK, &sums)
	if len(sums) != 1 || sums[0].ID != sum.ID {
		t.Fatalf("acme list = %+v, want just %s", sums, sum.ID)
	}
	doJSON(t, http.MethodGet, srv.URL+"/v1/monitors", "", http.StatusOK, &sums)
	if len(sums) != 0 {
		t.Fatalf("default list = %+v, want empty", sums)
	}

	// Cross-tenant ids read as absent on every subresource.
	base := srv.URL + "/v1/monitors/" + sum.ID
	doJSON(t, http.MethodGet, base, "", http.StatusNotFound, nil)
	doJSON(t, http.MethodGet, base+"/history", "", http.StatusNotFound, nil)
	doJSON(t, http.MethodPost, base+"/ingest",
		`{"time_ms":0,"synthetic":{"n":100}}`, http.StatusNotFound, nil)
	doJSON(t, http.MethodDelete, base, "", http.StatusNotFound, nil)

	// The owner reaches all of them; ?tenant= names nobody.
	doJSONAs(t, "acme", http.MethodGet, base, "", http.StatusOK, &sum)
	doJSONAs(t, "acme", http.MethodGet, base+"/history", "", http.StatusOK, nil)
	doJSON(t, http.MethodGet, base+"?tenant=acme", "", http.StatusBadRequest, nil)
	doJSONAs(t, "acme", http.MethodDelete, base, "", http.StatusOK, nil)

	// Tenant validation at the edge: malformed ids answer 400.
	doJSONAs(t, "Bad.Tenant", http.MethodGet, srv.URL+"/v1/monitors", "", http.StatusBadRequest, nil)
}
