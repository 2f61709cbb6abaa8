package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/httpx"
	"github.com/responsible-data-science/rds/internal/policy"
	"github.com/responsible-data-science/rds/internal/synth"
)

func newTestServer(t *testing.T) (*httptest.Server, *Engine) {
	t.Helper()
	e := NewEngine(Config{Workers: 2, JobTimeout: 30 * time.Second})
	h := NewHandler(e)
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return srv, e
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp, []byte(readAll(t, resp))
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestHTTPAuditSyntheticRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, body := postJSON(t, srv.URL+"/v1/audit",
		`{"synthetic":{"n":600,"bias":1.0,"seed":3},"epochs":5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var js JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if js.Status != StatusDone || js.Report == nil {
		t.Fatalf("job = %+v, want done with report", js)
	}
	if js.Report.Overall != policy.Red {
		t.Errorf("heavily biased data should grade RED, got %s", js.Report.Overall)
	}
	if js.Report.Fairness.Report.DisparateImpact >= 0.8 {
		t.Errorf("disparate impact %.3f should be below the four-fifths floor",
			js.Report.Fairness.Report.DisparateImpact)
	}
}

func TestHTTPAuditCSVUploadAndCacheHit(t *testing.T) {
	srv, e := newTestServer(t)
	data, err := synth.Credit(synth.CreditConfig{N: 500, Bias: 0.0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	csv, err := data.CSVString()
	if err != nil {
		t.Fatal(err)
	}
	reqBody, err := json.Marshal(map[string]any{
		"dataset": "upload-test",
		"csv":     csv,
		"epochs":  5,
		"policy":  map[string]any{"min_disparate_impact": 0.8, "require_lineage": true},
	})
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, srv.URL+"/v1/audit", string(reqBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var first JobStatus
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first request must not be a cache hit")
	}

	// The identical request again: served from the report cache.
	resp, body = postJSON(t, srv.URL+"/v1/audit", string(reqBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var second JobStatus
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("identical request should hit the report cache")
	}
	if second.Report == nil || second.Report.Pipeline != "upload-test" {
		t.Errorf("cached report missing or mislabeled: %+v", second.Report)
	}
	if snap := e.MetricsSnapshot(); snap.CacheHits != 1 {
		t.Errorf("metrics cache hits = %d, want 1", snap.CacheHits)
	}
}

func TestHTTPAsyncJobLifecycle(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, body := postJSON(t, srv.URL+"/v1/audit",
		`{"synthetic":{"n":600,"seed":9},"epochs":5,"async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async status %d, want 202: %s", resp.StatusCode, body)
	}
	var js JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	if js.ID == "" {
		t.Fatal("async response missing job id")
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/v1/audit/" + js.ID)
		if err != nil {
			t.Fatal(err)
		}
		raw := readAll(t, r)
		r.Body.Close()
		if err := json.Unmarshal([]byte(raw), &js); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, raw)
		}
		if js.Status == StatusDone || js.Status == StatusFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", js.ID, js.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if js.Status != StatusDone || js.Report == nil {
		t.Fatalf("job = %+v, want done with report", js)
	}
}

func TestHTTPRawCSVBody(t *testing.T) {
	srv, _ := newTestServer(t)
	data, err := synth.Credit(synth.CreditConfig{N: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	csv, err := data.CSVString()
	if err != nil {
		t.Fatal(err)
	}
	q := url.Values{"dataset": {"raw-csv"}, "target": {"approved"}, "sensitive": {"group"}}
	resp, err := http.Post(srv.URL+"/v1/audit?"+q.Encode(), "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var js JobStatus
	if err := json.Unmarshal([]byte(body), &js); err != nil {
		t.Fatal(err)
	}
	if js.Dataset != "raw-csv" || js.Report == nil {
		t.Fatalf("job = %+v, want raw-csv report", js)
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	srv, _ := newTestServer(t)

	for _, tc := range []struct {
		name, body string
		wantStatus int
	}{
		{"no source", `{}`, http.StatusBadRequest},
		{"two sources", `{"csv":"a\n1","synthetic":{}}`, http.StatusBadRequest},
		{"unknown field", `{"bogus":1}`, http.StatusBadRequest},
		{"path disabled", `{"path":"/etc/passwd"}`, http.StatusBadRequest},
		{"bad mitigation", `{"synthetic":{},"mitigation":"magic"}`, http.StatusBadRequest},
	} {
		resp, body := postJSON(t, srv.URL+"/v1/audit", tc.body)
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.wantStatus, body)
		}
	}

	resp, err := http.Get(srv.URL + "/v1/audit/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown route: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/audit: status %d, want 405", resp.StatusCode)
	}
}

func TestHTTPHealthzAndMetrics(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.Unmarshal([]byte(readAll(t, resp)), &health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Errorf("healthz status = %v, want ok", health["status"])
	}

	postJSON(t, srv.URL+"/v1/audit", `{"synthetic":{"n":600,"seed":11},"epochs":5}`)
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(readAll(t, resp)), &snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.JobsCompleted < 1 {
		t.Errorf("metrics JobsCompleted = %d, want >= 1", snap.JobsCompleted)
	}
	if snap.P50Millis <= 0 {
		t.Errorf("metrics P50Millis = %v, want > 0", snap.P50Millis)
	}
}

func TestHTTPMetricsChunkStates(t *testing.T) {
	e := NewEngine(Config{Workers: 1, JobTimeout: 30 * time.Second})
	h := NewHandler(e)
	h.ChunkStates = dataset.NewStateCache(1 << 20)
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	h.ChunkStates.Put("k", 1, 100)
	h.ChunkStates.Get("k")

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var merged struct {
		ChunkStates *dataset.StateSnapshot `json:"chunk_states"`
	}
	if err := json.Unmarshal([]byte(readAll(t, resp)), &merged); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if merged.ChunkStates == nil {
		t.Fatal("/metrics omitted chunk_states despite a configured cache")
	}
	if merged.ChunkStates.Resident != 1 || merged.ChunkStates.Hits != 1 {
		t.Errorf("chunk_states = %+v, want 1 resident, 1 hit", *merged.ChunkStates)
	}

	// Without a cache the gauge group must stay absent.
	srv2, _ := newTestServer(t)
	resp, err = http.Get(srv2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(readAll(t, resp)), &raw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := raw["chunk_states"]; ok {
		t.Error("/metrics emitted chunk_states with no cache configured")
	}
}

// TestHTTPAuditTenantScoping pins the serving plane's multi-tenant
// HTTP contract: jobs are owned by the submitting tenant (another
// tenant's job id answers 404), the tenant header is validated at the
// edge, and /metrics carries the per-tenant counter slices.
func TestHTTPAuditTenantScoping(t *testing.T) {
	srv, _ := newTestServer(t)

	postAs := func(ten, body string) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/audit", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if ten != "" {
			req.Header.Set(httpx.TenantHeader, ten)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp, readAll(t, resp)
	}

	resp, body := postAs("acme", `{"synthetic":{"n":400,"seed":21},"epochs":3,"async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("acme async audit = %d: %s", resp.StatusCode, body)
	}
	var js JobStatus
	if err := json.Unmarshal([]byte(body), &js); err != nil || js.ID == "" {
		t.Fatalf("async response %s (%v)", body, err)
	}
	if js.Tenant != "acme" {
		t.Fatalf("job tenant = %q, want acme", js.Tenant)
	}

	// Another tenant's job id reads as absent; the owner polls fine.
	resp, err := http.Get(srv.URL + "/v1/audit/" + js.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("default tenant polling acme's job = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/audit/" + js.ID + "?tenant=acme")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner polling = %d, want 200", resp.StatusCode)
	}

	// A malformed tenant header answers 400 at the edge.
	resp, _ = postAs("Bad.Tenant", `{"synthetic":{"n":400}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad tenant header = %d, want 400", resp.StatusCode)
	}

	// /metrics slices the counters per tenant.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(readAll(t, resp)), &snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Tenants["acme"].Submitted == 0 {
		t.Fatalf("metrics tenants = %+v, want an acme slice", snap.Tenants)
	}
}

// TestHTTPMultipartAndQuerySpec drives the multipart upload arm of
// decodeWire and the full query-parameter spec of wireFromQuery —
// tenant, seed, async, and mitigation all arrive as query params when
// the body is a raw file.
func TestHTTPMultipartAndQuerySpec(t *testing.T) {
	srv, _ := newTestServer(t)
	data, err := synth.Credit(synth.CreditConfig{N: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	csv, err := data.CSVString()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, err := mw.CreateFormFile("data", "upload.csv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(fw, csv); err != nil {
		t.Fatal(err)
	}
	mw.Close()

	q := url.Values{
		"dataset": {"upload"}, "target": {"approved"}, "sensitive": {"group"},
		"protected": {"B"}, "reference": {"A"},
		"tenant": {"acme"}, "seed": {"11"}, "async": {"1"},
	}
	resp, err := http.Post(srv.URL+"/v1/audit?"+q.Encode(), mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("multipart async = %d, want 202: %s", resp.StatusCode, body)
	}
	var js JobStatus
	if err := json.Unmarshal([]byte(body), &js); err != nil {
		t.Fatal(err)
	}
	if js.Tenant != "acme" || js.Dataset != "upload" {
		t.Fatalf("job = %+v, want tenant acme dataset upload", js)
	}

	// The ?tenant= fallback also scopes polling, same as the header.
	r, err := http.Get(srv.URL + "/v1/audit/" + js.ID + "?tenant=acme")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("owner poll via query = %d, want 200", r.StatusCode)
	}

	// Malformed raw-body requests fail before admission.
	for _, tc := range []struct {
		name, ct, q, body string
	}{
		{"bad seed", "text/csv", "?target=approved&seed=x", "a\n1"},
		{"unsupported content type", "application/xml", "", "<a/>"},
		{"multipart missing data field", mw.FormDataContentType(), "", "--x--"},
	} {
		resp, err := http.Post(srv.URL+"/v1/audit"+tc.q, tc.ct, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestAuditWireShape pins the /v1/audit bodies to their exact key sets
// — a finished, a queued, and a failed audit each encode the report at
// most once and never the staged-job internals — and pins that GET
// /v1/audit/{id} answers for any of the caller's jobs, multi-stage ones
// included, and 404s for another tenant's.
func TestAuditWireShape(t *testing.T) {
	e := NewEngine(Config{Workers: 1, QueueSize: 8, CacheSize: -1})
	release := make(chan struct{})
	var releaseOnce sync.Once
	e.runAudit = func(ctx context.Context, req *Request) (*core.FACTReport, error) {
		switch req.Dataset {
		case "blocker":
			<-release
		case "bad":
			return nil, errors.New("audit exploded")
		}
		return &core.FACTReport{Pipeline: req.Dataset}, nil
	}
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(func() {
		releaseOnce.Do(func() { close(release) })
		srv.Close()
		e.Close()
	})
	keys := func(body []byte) string {
		t.Helper()
		var m map[string]json.RawMessage
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, body)
		}
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	audit := func(dataset string, async bool) (int, []byte) {
		t.Helper()
		resp, body := postJSON(t, srv.URL+"/v1/audit",
			fmt.Sprintf(`{"dataset":%q,"synthetic":{"n":50},"async":%t}`, dataset, async))
		return resp.StatusCode, body
	}

	code, body := audit("ok", false)
	if want := "cache_hit,dataset,elapsed_millis,id,report,status,tenant"; code != http.StatusOK || keys(body) != want {
		t.Fatalf("sync audit = %d with keys %s, want 200 with %s", code, keys(body), want)
	}
	code, body = audit("bad", false)
	if want := "cache_hit,dataset,elapsed_millis,error,id,status,tenant"; code != http.StatusUnprocessableEntity || keys(body) != want {
		t.Fatalf("failed audit = %d with keys %s, want 422 with %s", code, keys(body), want)
	}

	// Hold the single worker so the next async audit is still queued
	// when its 202 is rendered.
	code, body = audit("blocker", true)
	var blocker JobStatus
	if err := json.Unmarshal(body, &blocker); err != nil || code != http.StatusAccepted {
		t.Fatalf("blocker = %d %s (%v)", code, body, err)
	}
	for js, _ := e.Job(blocker.ID); js.Status != StatusRunning; js, _ = e.Job(blocker.ID) {
		time.Sleep(time.Millisecond)
	}
	code, body = audit("queued", true)
	if want := "cache_hit,dataset,id,status,tenant"; code != http.StatusAccepted || keys(body) != want {
		t.Fatalf("async audit = %d with keys %s, want 202 with %s", code, keys(body), want)
	}
	var queued JobStatus
	if err := json.Unmarshal(body, &queued); err != nil || queued.Status != StatusQueued {
		t.Fatalf("async audit body %s (%v), want status queued", body, err)
	}
	releaseOnce.Do(func() { close(release) })

	noop := func(ctx context.Context) (any, error) { return nil, nil }
	id, err := e.Submit(JobSpec{Tenant: "acme", Name: "run", Stages: []Stage{{Run: noop}, {Run: noop}, {Run: noop}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	get := func(ten string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/audit/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(httpx.TenantHeader, ten)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode, []byte(readAll(t, resp))
	}
	code, body = get("acme")
	if want := "cache_hit,dataset,elapsed_millis,id,status,tenant"; code != http.StatusOK || keys(body) != want {
		t.Fatalf("owner GET of a multi-stage job = %d with keys %s, want 200 with %s", code, keys(body), want)
	}
	if code, _ = get("other"); code != http.StatusNotFound {
		t.Fatalf("another tenant's GET of a multi-stage job = %d, want 404", code)
	}
}
