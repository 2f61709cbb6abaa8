package tenantapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/httpx"
	"github.com/responsible-data-science/rds/internal/monitor"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/stream"
	"github.com/responsible-data-science/rds/internal/synth"
	"github.com/responsible-data-science/rds/internal/tenant"
)

func testHandler(t *testing.T) *Handler {
	t.Helper()
	return NewHandler(tenant.NewRegistry(tenant.Quotas{Weight: 1}))
}

func do(t *testing.T, h *Handler, method, path, tenantHeader, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
	}
	if tenantHeader != "" {
		r.Header.Set(httpx.TenantHeader, tenantHeader)
	}
	w := httptest.NewRecorder()
	httpx.NewRouter(h.Routes()...).ServeHTTP(w, r)
	return w
}

func TestQuotaCRUD(t *testing.T) {
	h := testHandler(t)

	w := do(t, h, http.MethodGet, "/v1/tenants", "", "")
	if w.Code != http.StatusOK {
		t.Fatalf("list: %d %s", w.Code, w.Body)
	}
	var list ListResponse
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Tenants) != 0 || list.Defaults.Weight != 1 {
		t.Fatalf("fresh list = %+v", list)
	}

	w = do(t, h, http.MethodPut, "/v1/tenants/acme", "", `{"weight":3,"max_datasets":2}`)
	if w.Code != http.StatusOK {
		t.Fatalf("put: %d %s", w.Code, w.Body)
	}

	w = do(t, h, http.MethodGet, "/v1/tenants/acme", "", "")
	var info tenant.Info
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if !info.Override || info.Quotas.Weight != 3 || info.Quotas.MaxDatasets != 2 {
		t.Fatalf("get after put = %+v", info)
	}

	// An unknown tenant is first-class: it answers the defaults.
	w = do(t, h, http.MethodGet, "/v1/tenants/other", "", "")
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Override || info.Quotas.Weight != 1 {
		t.Fatalf("unknown tenant = %+v", info)
	}

	w = do(t, h, http.MethodDelete, "/v1/tenants/acme", "", "")
	if w.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", w.Code, w.Body)
	}
	w = do(t, h, http.MethodGet, "/v1/tenants/acme", "", "")
	json.Unmarshal(w.Body.Bytes(), &info)
	if info.Override {
		t.Fatal("override survived delete")
	}

	if w := do(t, h, http.MethodPut, "/v1/tenants/Bad.Id", "", `{}`); w.Code != http.StatusBadRequest {
		t.Fatalf("invalid id: %d", w.Code)
	}
}

func TestRoutingAndMethodErrors(t *testing.T) {
	h := testHandler(t)
	cases := []struct {
		method, path, ten, body string
		want                    int
	}{
		{http.MethodGet, "/v1/other", "", "", http.StatusNotFound},
		{http.MethodPost, "/v1/tenants", "", "{}", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/tenants/acme", "", "{}", http.StatusMethodNotAllowed},
		{http.MethodPut, "/v1/tenants/acme/report", "", "{}", http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/tenants/Bad.Id", "", "", http.StatusBadRequest},
		{http.MethodGet, "/v1/tenants/Bad.Id/report", "", "", http.StatusBadRequest},
		{http.MethodGet, "/v1/tenants/acme", "Bad.Header", "", http.StatusBadRequest},
		{http.MethodPut, "/v1/tenants/acme", "", `{"weight":-1}`, http.StatusBadRequest},
		{http.MethodPut, "/v1/tenants/acme", "", `not json`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if w := do(t, h, c.method, c.path, c.ten, c.body); w.Code != c.want {
			t.Errorf("%s %s (tenant %q): %d, want %d: %s", c.method, c.path, c.ten, w.Code, c.want, w.Body)
		}
	}
	// A tenant-scoped PUT/DELETE on another tenant's id reads as absent.
	if w := do(t, h, http.MethodPut, "/v1/tenants/other", "self", "{}"); w.Code != http.StatusNotFound {
		t.Errorf("cross-tenant put: %d, want 404", w.Code)
	}
	if w := do(t, h, http.MethodDelete, "/v1/tenants/other", "self", ""); w.Code != http.StatusNotFound {
		t.Errorf("cross-tenant delete: %d, want 404", w.Code)
	}
}

func TestTenantScopedVisibility(t *testing.T) {
	h := testHandler(t)
	// A tenant-scoped request may address only itself; any other id
	// reads as absent.
	if w := do(t, h, http.MethodGet, "/v1/tenants/self", "self", ""); w.Code != http.StatusOK {
		t.Fatalf("own id: %d", w.Code)
	}
	if w := do(t, h, http.MethodGet, "/v1/tenants/other", "self", ""); w.Code != http.StatusNotFound {
		t.Fatalf("other id: %d, want 404", w.Code)
	}
	if w := do(t, h, http.MethodGet, "/v1/tenants/other/report", "self", ""); w.Code != http.StatusNotFound {
		t.Fatalf("other report: %d, want 404", w.Code)
	}
}

// buildStack assembles a full two-tenant workload — datasets loaded,
// monitors registered, identical rows ingested — on an engine with the
// given worker count, ingesting tenants in the given order. Everything
// about the workload is fixed; only the scheduling environment varies.
func buildStack(t *testing.T, workers int, order []string) *Handler {
	t.Helper()
	tenants := tenant.NewRegistry(tenant.Quotas{})
	engine := serve.NewEngine(serve.Config{Workers: workers, QueueSize: 64, TenantQuotas: tenants.Quotas})
	t.Cleanup(engine.Close)
	datasets := dataset.NewRegistry(64 << 20)
	datasets.UseQuotas(tenants.Quotas)
	monitors, err := monitor.NewRegistry(monitor.RegistryConfig{
		Engine:   engine,
		Datasets: datasets,
		Quotas:   tenants.Quotas,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(monitors.Close)

	rows, err := synth.Credit(synth.CreditConfig{N: 300, GroupBFraction: 0.4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, ten := range order {
		if _, err := datasets.PutAs(ten, ten+"-data", rows); err != nil {
			t.Fatalf("PutAs(%s): %v", ten, err)
		}
		m, err := monitors.Register(monitor.Spec{
			Name:   "stream",
			Tenant: ten,
			Policy: serve.DefaultPolicy(),
			Train:  core.TrainSpec{Target: "approved", Sensitive: "group", Protected: "B", Reference: "A"},
			Window: monitor.WindowConfig{WidthMS: 100},
			Seed:   1,
		})
		if err != nil {
			t.Fatalf("Register(%s): %v", ten, err)
		}
		for i := int64(0); i < 3; i++ {
			if err := m.Ingest(stream.Arrival{TimeMS: i * 100, Rows: rows}); err != nil {
				t.Fatalf("Ingest(%s): %v", ten, err)
			}
		}
		m.Flush()
	}
	return &Handler{Tenants: tenants, Datasets: datasets, Monitors: monitors}
}

// TestReportByteIdentityAcrossScheduling is the property test for the
// report's determinism guarantee: the same two-tenant workload run
// under different worker counts and different tenant interleavings
// must render byte-identical responsibility reports — audit results
// and the roll-ups built from them never depend on scheduling.
func TestReportByteIdentityAcrossScheduling(t *testing.T) {
	a := buildStack(t, 1, []string{"alpha", "beta"})
	b := buildStack(t, 4, []string{"beta", "alpha"})
	for _, ten := range []string{"alpha", "beta"} {
		ra, err := json.Marshal(a.BuildReport(ten))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := json.Marshal(b.BuildReport(ten))
		if err != nil {
			t.Fatal(err)
		}
		if string(ra) != string(rb) {
			t.Fatalf("report for %s differs across scheduling:\n%s\n---\n%s", ten, ra, rb)
		}
	}
}

func TestReportContent(t *testing.T) {
	h := buildStack(t, 2, []string{"alpha"})
	w := do(t, h, http.MethodGet, "/v1/tenants/alpha/report", "alpha", "")
	if w.Code != http.StatusOK {
		t.Fatalf("report: %d %s", w.Code, w.Body)
	}
	var rep Report
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Tenant != "alpha" {
		t.Fatalf("tenant = %q", rep.Tenant)
	}
	if len(rep.Datasets) != 1 || rep.Datasets[0].Name != "alpha-data" {
		t.Fatalf("datasets = %+v", rep.Datasets)
	}
	if !strings.Contains(rep.Datasets[0].Datasheet, "# Datasheet") {
		t.Fatal("datasheet card missing")
	}
	if len(rep.Monitors) != 1 || rep.Monitors[0].Name != "stream" {
		t.Fatalf("monitors = %+v", rep.Monitors)
	}
	mon := rep.Monitors[0]
	if mon.Audits == 0 || mon.LastGrade == nil {
		t.Fatalf("monitor not audited: %+v", mon)
	}
	if !strings.Contains(mon.ModelCard, "# Model Card") {
		t.Fatal("model card missing")
	}
	// Another tenant's report renders empty sections, not alpha's data.
	var other Report
	w = do(t, h, http.MethodGet, "/v1/tenants/beta/report", "", "")
	if err := json.Unmarshal(w.Body.Bytes(), &other); err != nil {
		t.Fatal(err)
	}
	if len(other.Datasets) != 0 || len(other.Monitors) != 0 {
		t.Fatalf("beta sees alpha's resources: %+v", other)
	}
}
