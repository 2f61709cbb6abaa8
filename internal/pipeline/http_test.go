package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/synth"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// doJSON sends one request with optional tenant header and returns the
// status code and raw body.
func doJSON(t *testing.T, srv *httptest.Server, method, path, ten string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if ten != "" {
		req.Header.Set("X-RDS-Tenant", ten)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

func TestHTTPPipelineLifecycle(t *testing.T) {
	w := newWorld(t, nil)
	srv := httptest.NewServer(NewHandler(w.runs))
	defer srv.Close()

	code, raw := doJSON(t, srv, http.MethodPost, "/v1/pipelines", "", map[string]any{
		"dataset_ref": w.ref,
		"epochs":      8,
		"stages":      []string{"train", "audit", "mitigate", "re-audit"},
	})
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", code, raw)
	}
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.ID == "" || rec.Spec.Mitigation != "reweigh" {
		t.Fatalf("accepted record = %+v, want id and defaulted spec", rec)
	}

	// Poll the record endpoint until the run is terminal.
	deadline := time.Now().Add(time.Minute)
	var got Record
	for {
		code, raw = doJSON(t, srv, http.MethodGet, "/v1/pipelines/"+rec.ID, "", nil)
		if code != http.StatusOK {
			t.Fatalf("GET = %d: %s", code, raw)
		}
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if terminal(got.Status) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never finished: %+v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got.Status != serve.StatusDone || len(got.Stages) != 4 {
		t.Fatalf("final = %s with %d stages (%s)", got.Status, len(got.Stages), got.Error)
	}

	var list struct {
		Pipelines []Record `json:"pipelines"`
	}
	code, raw = doJSON(t, srv, http.MethodGet, "/v1/pipelines", "", nil)
	if code != http.StatusOK {
		t.Fatalf("GET list = %d", code)
	}
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Pipelines) != 1 || list.Pipelines[0].ID != rec.ID {
		t.Fatalf("list = %+v", list)
	}
}

func TestHTTPPipelineErrorPaths(t *testing.T) {
	w := newWorld(t, nil)
	srv := httptest.NewServer(NewHandler(w.runs))
	defer srv.Close()

	for _, tc := range []struct {
		name string
		body any
		want int
	}{
		{"missing dataset_ref", map[string]any{}, http.StatusBadRequest},
		{"unknown dataset", map[string]any{"dataset_ref": "nope"}, http.StatusBadRequest},
		{"unknown stage", map[string]any{"dataset_ref": w.ref, "stages": []string{"ship-it"}}, http.StatusBadRequest},
		{"bad mitigation", map[string]any{"dataset_ref": w.ref, "mitigation": "hope"}, http.StatusBadRequest},
	} {
		if code, raw := doJSON(t, srv, http.MethodPost, "/v1/pipelines", "", tc.body); code != tc.want {
			t.Errorf("%s: POST = %d (%s), want %d", tc.name, code, raw, tc.want)
		}
	}
	if code, _ := doJSON(t, srv, http.MethodDelete, "/v1/pipelines", "", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE collection = %d, want 405", code)
	}
	if code, _ := doJSON(t, srv, http.MethodGet, "/v1/pipelines/pl-404404", "", nil); code != http.StatusNotFound {
		t.Errorf("GET absent run = %d, want 404", code)
	}
	if code, _ := doJSON(t, srv, http.MethodGet, "/v1/pipelines/pl-000001", "Bad Tenant!", nil); code != http.StatusBadRequest {
		t.Errorf("invalid tenant header = %d, want 400", code)
	}
}

// TestHTTPPipelineTenantScoping checks the header-scoped visibility
// contract: a tenant's runs are invisible (404, not 403) to others,
// operators see all, and a quota rejection answers 429 with
// Retry-After semantics reserved for admission errors.
func TestHTTPPipelineTenantScoping(t *testing.T) {
	quotas := func(ten string) tenant.Quotas {
		if ten == "capped" {
			return tenant.Quotas{MaxPipelines: 1}
		}
		return tenant.Quotas{}
	}
	engine := serve.NewEngine(serve.Config{Workers: 1, QueueSize: 16, JobTimeout: time.Minute, TenantQuotas: quotas})
	defer engine.Close()
	w := newWorld(t, nil) // datasets + a resident default-tenant frame
	f, err := synth.Credit(synth.CreditConfig{N: 300, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := w.datasets.PutAs("capped", "credit-c", f)
	if err != nil {
		t.Fatal(err)
	}
	runs := NewRegistry(engine, w.datasets, quotas)
	srv := httptest.NewServer(NewHandler(runs))
	defer srv.Close()

	// Hold the only worker so the capped tenant's run stays live.
	block := make(chan struct{})
	entered := make(chan struct{})
	blocker, err := engine.Submit(serve.JobSpec{Stages: []serve.Stage{{
		Run: func(ctx context.Context) (any, error) { close(entered); <-block; return nil, nil },
	}}})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	defer func() {
		close(block)
		engine.Wait(context.Background(), blocker)
	}()

	spec := map[string]any{"dataset_ref": meta.Ref, "epochs": 3, "stages": []string{"train"}}
	code, raw := doJSON(t, srv, http.MethodPost, "/v1/pipelines", "capped", spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST as capped = %d: %s", code, raw)
	}
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Tenant != "capped" {
		t.Fatalf("record tenant = %q, want header tenant", rec.Tenant)
	}

	// Second live run: quota → 429.
	code, raw = doJSON(t, srv, http.MethodPost, "/v1/pipelines", "capped", spec)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over max_pipelines = %d (%s), want 429", code, raw)
	}

	// Foreign tenant: the run reads as absent.
	if code, _ := doJSON(t, srv, http.MethodGet, "/v1/pipelines/"+rec.ID, "other", nil); code != http.StatusNotFound {
		t.Fatalf("foreign GET = %d, want 404", code)
	}
	if code, _ := doJSON(t, srv, http.MethodGet, "/v1/pipelines/"+rec.ID, "capped", nil); code != http.StatusOK {
		t.Fatalf("own GET = %d, want 200", code)
	}
	if code, _ := doJSON(t, srv, http.MethodGet, "/v1/pipelines/"+rec.ID, "", nil); code != http.StatusOK {
		t.Fatalf("operator GET = %d, want 200", code)
	}
	var list struct {
		Pipelines []Record `json:"pipelines"`
	}
	_, raw = doJSON(t, srv, http.MethodGet, "/v1/pipelines", "other", nil)
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Pipelines) != 0 {
		t.Fatalf("foreign list sees %d runs, want 0", len(list.Pipelines))
	}
}
