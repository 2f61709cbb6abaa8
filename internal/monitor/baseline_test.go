package monitor

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/stream"
	"github.com/responsible-data-science/rds/internal/synth"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// newBaselineFixture builds an engine + dataset registry + monitor
// registry, with a synthetic credit population resident.
func newBaselineFixture(t *testing.T, budget int64) (*Registry, *dataset.Registry, dataset.Meta) {
	t.Helper()
	engine := serve.NewEngine(serve.Config{Workers: 2, JobTimeout: time.Minute})
	t.Cleanup(engine.Close)
	datasets := dataset.NewRegistry(budget)
	reg, err := NewRegistry(RegistryConfig{Engine: engine, Datasets: datasets})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	base, err := synth.Credit(synth.CreditConfig{N: 800, Bias: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := datasets.PutAs(tenant.Default, "baseline", base)
	if err != nil {
		t.Fatal(err)
	}
	return reg, datasets, meta
}

func baselineSpec(name, ref string) Spec {
	return Spec{
		Name:        name,
		BaselineRef: ref,
		Policy:      serve.DefaultPolicy(),
		Train: core.TrainSpec{
			Target: "approved", Sensitive: "group",
			Protected: "B", Reference: "A", Epochs: 5,
		},
		Window: WindowConfig{WidthMS: 1000},
	}
}

func TestRegisterWithBaselineRef(t *testing.T) {
	reg, datasets, meta := newBaselineFixture(t, 64<<20)
	m, err := reg.Register(baselineSpec("ref-monitor", meta.Ref))
	if err != nil {
		t.Fatal(err)
	}
	st := m.Status()
	if !st.BaselinePinned || st.BaselineGrade == nil {
		t.Fatalf("baseline not pinned at registration: %+v", st)
	}
	hist := m.History()
	if len(hist) != 1 || !hist[0].Baseline || hist[0].Window != -1 || !hist[0].Audited {
		t.Fatalf("baseline history entry = %+v", hist)
	}
	if got, _ := datasets.GetAs(tenant.Default, meta.Ref); got.Pins != 1 {
		t.Fatalf("dataset pins = %d, want 1", got.Pins)
	}

	// The first stream window must be drift-scored against the pinned
	// baseline, not swallowed as a new baseline.
	win, err := synth.Credit(synth.CreditConfig{N: 400, Bias: 0.5, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Ingest(stream.Arrival{TimeMS: 0, Rows: win}, stream.Arrival{TimeMS: 1001}); err != nil {
		t.Fatal(err)
	}
	hist = m.History()
	last := hist[len(hist)-1]
	if last.Baseline || last.Drift == nil {
		t.Fatalf("first window entry = %+v, want drift-scored non-baseline", last)
	}

	// Deleting the monitor releases the pin.
	if !reg.Delete(m.ID()) {
		t.Fatal("delete failed")
	}
	if got, _ := datasets.GetAs(tenant.Default, meta.Ref); got.Pins != 0 {
		t.Fatalf("dataset pins = %d after monitor delete, want 0", got.Pins)
	}
}

// TestBaselineSurvivesRegistryChurn: while a monitor holds the pin,
// over-budget uploads must evict around the baseline, never through it.
func TestBaselineSurvivesRegistryChurn(t *testing.T) {
	reg, datasets, meta := newBaselineFixture(t, 3*meta0Size(t))
	m, err := reg.Register(baselineSpec("pinned", meta.Ref))
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(20); seed < 28; seed++ {
		f, err := synth.Credit(synth.CreditConfig{N: 800, Bias: 0.5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := datasets.PutAs(tenant.Default, "churn", f); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := datasets.ResolveAs(tenant.Default, meta.Ref); !ok {
		t.Fatal("pinned baseline evicted by registry churn")
	}
	reg.Delete(m.ID())
	// Unpinned now: the next over-budget churn may evict it.
	for seed := uint64(30); seed < 34; seed++ {
		f, err := synth.Credit(synth.CreditConfig{N: 800, Bias: 0.5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := datasets.PutAs(tenant.Default, "churn2", f); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := datasets.ResolveAs(tenant.Default, meta.Ref); ok {
		t.Fatal("unpinned baseline survived eviction pressure that should have dropped it")
	}
}

// meta0Size sizes the standard 800-row fixture dataset so budgets can
// be stated in multiples of it.
func meta0Size(t *testing.T) int64 {
	t.Helper()
	f, err := synth.Credit(synth.CreditConfig{N: 800, Bias: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return dataset.SizeOf(f)
}

func TestRegisterBaselineRefErrors(t *testing.T) {
	reg, _, _ := newBaselineFixture(t, 64<<20)
	if _, err := reg.Register(baselineSpec("missing", "no-such-ref")); err == nil ||
		!strings.Contains(err.Error(), "unknown baseline_ref") {
		t.Fatalf("unknown ref error = %v", err)
	}

	// A registry wired without a dataset registry must reject refs.
	engine := serve.NewEngine(serve.Config{Workers: 1, JobTimeout: time.Minute})
	defer engine.Close()
	bare, err := NewRegistry(RegistryConfig{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, err := bare.Register(baselineSpec("bare", "some-ref")); err == nil ||
		!strings.Contains(err.Error(), "no dataset registry") {
		t.Fatalf("bare registry error = %v", err)
	}
}

// TestHTTPBaselineRefLifecycle drives the three planes the way
// cmd/rds-serve wires them: upload a dataset, register a monitor whose
// baseline_ref pins it, watch DELETE /v1/datasets answer 409 while the
// monitor lives, and succeed after the monitor is deleted.
func TestHTTPBaselineRefLifecycle(t *testing.T) {
	engine := serve.NewEngine(serve.Config{Workers: 2, JobTimeout: time.Minute})
	t.Cleanup(engine.Close)
	datasets := dataset.NewRegistry(64 << 20)
	reg, err := NewRegistry(RegistryConfig{Engine: engine, Datasets: datasets})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	handler := serve.NewHandler(engine)
	handler.Datasets = datasets
	srv := httptest.NewServer(handler.Mount(NewHandler(reg).Routes(), dataset.NewHandler(datasets).Routes()))
	t.Cleanup(srv.Close)

	base, err := synth.Credit(synth.CreditConfig{N: 600, Bias: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	csv, err := base.CSVString()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/datasets?name=live-baseline", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	var meta dataset.Meta
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var sum Summary
	doJSON(t, http.MethodPost, srv.URL+"/v1/monitors",
		fmt.Sprintf(`{"name":"live","baseline_ref":%q,"window_ms":1000,"epochs":5}`, meta.Ref),
		http.StatusCreated, &sum)
	if !sum.BaselinePinned {
		t.Fatalf("summary = %+v, want pinned baseline", sum)
	}

	var errBody map[string]string
	doJSON(t, http.MethodDelete, srv.URL+"/v1/datasets/"+meta.Ref, "", http.StatusConflict, &errBody)

	doJSON(t, http.MethodDelete, srv.URL+"/v1/monitors/"+sum.ID, "", http.StatusOK, &errBody)
	doJSON(t, http.MethodDelete, srv.URL+"/v1/datasets/"+meta.Ref, "", http.StatusOK, &errBody)

	// An unknown baseline_ref registration answers 400.
	doJSON(t, http.MethodPost, srv.URL+"/v1/monitors",
		`{"name":"bad","baseline_ref":"missing","window_ms":1000}`,
		http.StatusBadRequest, &errBody)
}

// TestCloseReleasesBaselinePins: registry Close must unpin every
// monitor's baseline, not just Delete.
func TestCloseReleasesBaselinePins(t *testing.T) {
	reg, datasets, meta := newBaselineFixture(t, 64<<20)
	if _, err := reg.Register(baselineSpec("a", meta.Ref)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(baselineSpec("b", meta.Ref)); err != nil {
		t.Fatal(err)
	}
	if got, _ := datasets.GetAs(tenant.Default, meta.Ref); got.Pins != 2 {
		t.Fatalf("pins = %d, want 2", got.Pins)
	}
	reg.Close()
	if got, _ := datasets.GetAs(tenant.Default, meta.Ref); got.Pins != 0 {
		t.Fatalf("pins = %d after Close, want 0", got.Pins)
	}
}
