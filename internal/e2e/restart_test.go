// Package e2e holds cross-layer end-to-end tests that assemble the
// full service the way cmd/rds-serve does — engine, dataset registry,
// monitor registry, HTTP handler, durable store — and drive it over
// HTTP. The restart test is the durability acceptance test: state
// written through the storage port must survive a hard stop and
// restore bit-identically.
package e2e

import (
	"bytes"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/monitor"
	"github.com/responsible-data-science/rds/internal/pipeline"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/store/fsjson"
	"github.com/responsible-data-science/rds/internal/synth"
	"github.com/responsible-data-science/rds/internal/tenant"
	"github.com/responsible-data-science/rds/internal/tenantapi"
)

// service is one booted instance of the full stack over a state dir.
type service struct {
	srv       *httptest.Server
	engine    *serve.Engine
	registry  *monitor.Registry
	tenants   *tenant.Registry
	pipelines *pipeline.Registry
}

// boot assembles the stack exactly as cmd/rds-serve does: open the
// state store, restore tenant quotas, then datasets, then monitors,
// then pipelines, and mount the handler with every plane (including
// /v1/tenants and /v1/pipelines).
func boot(t *testing.T, stateDir string) *service {
	t.Helper()
	st, err := fsjson.Open(stateDir)
	if err != nil {
		t.Fatalf("fsjson.Open(%s): %v", stateDir, err)
	}
	tenants := tenant.NewRegistry(tenant.Quotas{})
	if err := tenants.AttachStore(st); err != nil {
		t.Fatalf("tenant AttachStore: %v", err)
	}
	engine := serve.NewEngine(serve.Config{Workers: 2, QueueSize: 32, JobTimeout: time.Minute, TenantQuotas: tenants.Quotas})
	datasets := dataset.NewRegistry(0)
	datasets.UseQuotas(tenants.Quotas)
	if err := datasets.AttachStore(st); err != nil {
		t.Fatalf("AttachStore: %v", err)
	}
	registry, err := monitor.NewRegistry(monitor.RegistryConfig{
		Engine:   engine,
		Datasets: datasets,
		Quotas:   tenants.Quotas,
	})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	if err := registry.AttachStore(st); err != nil {
		t.Fatalf("monitor AttachStore: %v", err)
	}
	pipelines := pipeline.NewRegistry(engine, datasets, tenants.Quotas)
	if err := pipelines.AttachStore(st); err != nil {
		t.Fatalf("pipeline AttachStore: %v", err)
	}
	handler := serve.NewHandler(engine)
	handler.Datasets = datasets
	handler.MonitorMetrics = func() any { return registry.Metrics() }
	routes := handler.Mount(dataset.NewHandler(datasets).Routes(), monitor.NewHandler(registry).Routes(), pipeline.NewHandler(pipelines).Routes(),
		(&tenantapi.Handler{Tenants: tenants, Datasets: datasets, Monitors: registry, Pipelines: pipelines}).Routes())
	return &service{srv: httptest.NewServer(routes), engine: engine, registry: registry, tenants: tenants, pipelines: pipelines}
}

// hardStop kills the instance without any graceful persistence pass —
// the moral equivalent of kill -9 for in-process state. Durable state
// must already be on disk; nothing is flushed here.
func (s *service) hardStop() {
	s.srv.Close()
	s.engine.Close()
}

// post sends a JSON POST and decodes the response into out.
func post(t *testing.T, url, contentType string, body []byte, out any) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s = %d: %s", url, resp.StatusCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s response %q: %v", url, raw, err)
		}
	}
}

// get fetches a URL and decodes the JSON response into out.
func get(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
}

// driftOf extracts the drift-scored (non-baseline) entries from a
// history payload, keyed by window index.
func driftOf(entries []monitor.WindowEntry) map[int64]*monitor.DriftReport {
	out := map[int64]*monitor.DriftReport{}
	for _, e := range entries {
		if e.Drift != nil {
			out[e.Window] = e.Drift
		}
	}
	return out
}

// TestRestartEndToEnd is the PR's acceptance test: boot the service
// with a state dir, upload a dataset, register a baseline_ref monitor,
// push traffic, hard-stop mid-traffic, reboot over the same dir, and
// assert the monitor, its pin, its baseline profile, and audit-by-ref
// all resume — with drift scores bit-identical to the first life.
func TestRestartEndToEnd(t *testing.T) {
	stateDir := t.TempDir()

	baseline, err := synth.Credit(synth.CreditConfig{N: 800, Bias: 0, GroupBFraction: 0.35, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseCSV, err := baseline.CSVString()
	if err != nil {
		t.Fatal(err)
	}
	window, err := synth.Credit(synth.CreditConfig{N: 400, Bias: 0.3, GroupBFraction: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	windowCSV, err := window.CSVString()
	if err != nil {
		t.Fatal(err)
	}

	// ---- First life -------------------------------------------------
	a := boot(t, stateDir)

	var ds struct {
		Ref string `json:"ref"`
	}
	post(t, a.srv.URL+"/v1/datasets", "text/csv", []byte(baseCSV), &ds)
	if ds.Ref == "" {
		t.Fatal("dataset upload returned no ref")
	}

	regBody, _ := json.Marshal(map[string]any{
		"name":         "credit-stream",
		"baseline_ref": ds.Ref,
		"window_ms":    100,
		"epochs":       5,
	})
	var mon struct {
		ID string `json:"id"`
	}
	post(t, a.srv.URL+"/v1/monitors", "application/json", regBody, &mon)

	ingest, _ := json.Marshal(map[string]any{"time_ms": 0, "csv": windowCSV, "flush": true})
	post(t, a.srv.URL+"/v1/monitors/"+mon.ID+"/ingest", "application/json", ingest, nil)

	var hist1 struct {
		History []monitor.WindowEntry `json:"history"`
	}
	get(t, a.srv.URL+"/v1/monitors/"+mon.ID+"/history", &hist1)
	drift1 := driftOf(hist1.History)
	if len(drift1) == 0 {
		t.Fatalf("first life produced no drift-scored windows: %+v", hist1)
	}

	// Mid-traffic: rows land in an open window that will never close.
	// They are in-flight state and are expected to die with the
	// process; everything registered/uploaded above must not.
	partial, _ := json.Marshal(map[string]any{"time_ms": 200, "csv": windowCSV})
	post(t, a.srv.URL+"/v1/monitors/"+mon.ID+"/ingest", "application/json", partial, nil)

	a.hardStop()

	// ---- Second life ------------------------------------------------
	b := boot(t, stateDir)
	defer b.hardStop()
	defer b.registry.Close()

	var sums []monitor.Summary
	get(t, b.srv.URL+"/v1/monitors", &sums)
	if len(sums) != 1 || sums[0].ID != mon.ID || sums[0].Name != "credit-stream" {
		t.Fatalf("monitors after restart = %+v, want %s restored", sums, mon.ID)
	}
	if !sums[0].BaselinePinned || sums[0].Degraded {
		t.Fatalf("restored monitor %+v, want baseline pinned and not degraded", sums[0])
	}

	// The baseline dataset survived and is audit-able by ref.
	var dmeta dataset.Meta
	get(t, b.srv.URL+"/v1/datasets/"+ds.Ref, &dmeta)
	if dmeta.Pins != 1 {
		t.Fatalf("baseline dataset %+v, want 1 pin from the restored monitor", dmeta)
	}
	auditBody, _ := json.Marshal(map[string]any{"dataset_ref": ds.Ref, "epochs": 5})
	var audit map[string]any
	post(t, b.srv.URL+"/v1/audit", "application/json", auditBody, &audit)

	// Bit-identity: replay the same window and compare drift scores.
	post(t, b.srv.URL+"/v1/monitors/"+mon.ID+"/ingest", "application/json", ingest, nil)
	var hist2 struct {
		History []monitor.WindowEntry `json:"history"`
	}
	get(t, b.srv.URL+"/v1/monitors/"+mon.ID+"/history", &hist2)
	drift2 := driftOf(hist2.History)
	for w, d1 := range drift1 {
		d2, ok := drift2[w]
		if !ok {
			t.Fatalf("window %d not drift-scored after restart (history %+v)", w, hist2)
		}
		if !reflect.DeepEqual(d1, d2) {
			t.Fatalf("window %d drift diverged after restart:\nbefore %+v\nafter  %+v", w, d1, d2)
		}
	}

	// The in-flight partial window did not resurrect.
	if got := sums[0].RowsIngested; got != 0 {
		t.Fatalf("restored monitor claims %d pre-restart rows; counters are not durable", got)
	}
}

// TestRestartRefusesCorruptState proves the boot path (not just the
// adapter) refuses a damaged state dir with an error naming the file.
func TestRestartRefusesCorruptState(t *testing.T) {
	stateDir := t.TempDir()
	a := boot(t, stateDir)
	base, err := synth.Credit(synth.CreditConfig{N: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	csv, err := base.CSVString()
	if err != nil {
		t.Fatal(err)
	}
	var ds struct {
		Ref string `json:"ref"`
	}
	post(t, a.srv.URL+"/v1/datasets", "text/csv", []byte(csv), &ds)
	a.hardStop()

	// Truncate the dataset record on disk.
	matches, err := filepathGlob(stateDir, ds.Ref+".json")
	if err != nil || len(matches) != 1 {
		t.Fatalf("locating record: %v (%d matches)", err, len(matches))
	}
	if err := truncateFile(matches[0]); err != nil {
		t.Fatal(err)
	}

	st, err := fsjson.Open(stateDir)
	if err != nil {
		t.Fatalf("Open after record truncation should succeed (corruption surfaces at read): %v", err)
	}
	derr := dataset.NewRegistry(0).AttachStore(st)
	if derr == nil || !strings.Contains(derr.Error(), ds.Ref) {
		t.Fatalf("restore over truncated record: %v, want refusal naming %s", derr, ds.Ref)
	}
}

// filepathGlob finds name under root recursively.
func filepathGlob(root, name string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && d.Name() == name {
			out = append(out, path)
		}
		return err
	})
	return out, err
}

// truncateFile cuts the file to half its length — a torn write.
func truncateFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw[:len(raw)/2], 0o644)
}
