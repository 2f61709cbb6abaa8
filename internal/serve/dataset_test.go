package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/dataset"
)

// TestDataHashShortCircuitsCacheKey: a request carrying the dataset's
// precomputed content hash must land on the same report-cache entry as
// the identical request that hashed the frame itself.
func TestDataHashShortCircuitsCacheKey(t *testing.T) {
	e := NewEngine(Config{Workers: 1})
	defer e.Close()

	first := testRequest(t, 1)
	id, err := submitAudit(e, first)
	if err != nil {
		t.Fatal(err)
	}
	if js, err := e.Wait(context.Background(), id); err != nil || js.Status != StatusDone {
		t.Fatalf("first audit: %v %v", js.Status, err)
	}

	byRef := testRequest(t, 1)
	byRef.DataHash = byRef.Data.Hash()
	id, err = submitAudit(e, byRef)
	if err != nil {
		t.Fatal(err)
	}
	js, err := e.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !js.CacheHit {
		t.Fatal("DataHash-keyed request missed the cache entry the hashed request filled")
	}
	// A different (wrong) hash must key differently — the engine trusts
	// DataHash, so equal hashes mean equal keys and nothing else does.
	other := testRequest(t, 1)
	other.DataHash = "deadbeef"
	if cacheKey(other) == cacheKey(byRef) {
		t.Fatal("distinct DataHash values produced the same cache key")
	}
}

// TestExecLatencyWindowExcludesHits: cache-hit jobs land only in the
// combined latency window; the exec window keeps measuring executed
// audits, so hit storms cannot drag p50_exec/p99_exec toward zero.
func TestExecLatencyWindowExcludesHits(t *testing.T) {
	e := NewEngine(Config{Workers: 1})
	defer e.Close()
	const execDelay = 30 * time.Millisecond
	e.runAudit = func(ctx context.Context, req *Request) (*core.FACTReport, error) {
		time.Sleep(execDelay)
		return &core.FACTReport{Pipeline: req.Dataset}, nil
	}

	id, err := submitAudit(e, stubRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	// Nine hits of the same request: with a single window these would
	// pull the p50 to ~0 and hide the 30ms audit.
	for i := 0; i < 9; i++ {
		id, err := submitAudit(e, stubRequest(1))
		if err != nil {
			t.Fatal(err)
		}
		if js, err := e.Wait(context.Background(), id); err != nil || !js.CacheHit {
			t.Fatalf("expected cache hit: %+v %v", js, err)
		}
	}

	snap := e.MetricsSnapshot()
	if snap.LatencySamples != 10 || snap.ExecLatencySamples != 1 {
		t.Fatalf("samples = %d/%d, want 10 combined / 1 exec", snap.LatencySamples, snap.ExecLatencySamples)
	}
	if snap.P50ExecMillis < float64(execDelay/time.Millisecond)*0.8 {
		t.Fatalf("p50_exec = %.2fms, should reflect the %s audit", snap.P50ExecMillis, execDelay)
	}
	if snap.P50Millis >= snap.P50ExecMillis {
		t.Fatalf("combined p50 %.2fms should sit below exec p50 %.2fms at 90%% hit rate",
			snap.P50Millis, snap.P99ExecMillis)
	}
	if snap.P99Millis < snap.P50ExecMillis*0.8 {
		t.Fatalf("combined p99 %.2fms should still surface the slow audit", snap.P99Millis)
	}
}

// newDatasetTestServer mounts the audit API with a dataset registry.
func newDatasetTestServer(t *testing.T) (*httptest.Server, *dataset.Registry) {
	t.Helper()
	e := NewEngine(Config{Workers: 2, JobTimeout: 30 * time.Second})
	h := NewHandler(e)
	reg := dataset.NewRegistry(64 << 20)
	h.Datasets = dataset.NewHandler(reg)
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return srv, reg
}

// TestHTTPAuditByDatasetRef is the upload-once workflow end to end:
// load a (BOM'd, NaN-bearing) CSV into the registry, audit it by ref,
// and check the report matches the inline-CSV audit of the same bytes
// — the acceptance case for the two upload paths.
func TestHTTPAuditByDatasetRef(t *testing.T) {
	srv, _ := newDatasetTestServer(t)

	// A BOM'd CSV whose "note" column is all NaN literals: the column
	// must stay text (not corrupt stats as all-NaN floats), and the
	// BOM must not break Col("approved")-style lookups.
	var csv strings.Builder
	csv.WriteString("\uFEFFapproved,group,income,note\n")
	for i := 0; i < 400; i++ {
		group, cut := "A", 7
		if i%3 == 0 {
			group, cut = "B", 4
		}
		approved := 0
		if i%10 < cut {
			approved = 1
		}
		fmt.Fprintf(&csv, " %d ,%s,%d,NaN\n", approved, group, 20000+i*37)
	}

	resp, err := http.Post(srv.URL+"/v1/datasets?name=bom-credit", "text/csv", strings.NewReader(csv.String()))
	if err != nil {
		t.Fatal(err)
	}
	var meta dataset.Meta
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || meta.Ref == "" {
		t.Fatalf("upload: %d %+v", resp.StatusCode, meta)
	}

	auditReq := func(source string) JobStatus {
		resp, body := postJSON(t, srv.URL+"/v1/audit", source)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("audit status %d: %s", resp.StatusCode, body)
		}
		var js JobStatus
		if err := json.Unmarshal(body, &js); err != nil {
			t.Fatal(err)
		}
		return js
	}

	byRef := auditReq(fmt.Sprintf(`{"dataset_ref":%q,"epochs":5}`, meta.Ref))
	if byRef.Status != StatusDone || byRef.Report == nil {
		t.Fatalf("ref audit = %+v", byRef)
	}
	if byRef.Dataset != "bom-credit" {
		t.Fatalf("ref audit took name %q, want registry name", byRef.Dataset)
	}

	// Same bytes inline under the same dataset name: the inline path
	// parses fresh but hashes to the same content, so it must land on
	// the cache entry the ref audit filled — proof the ref short-circuit
	// and the full hash agree.
	inlineBody, err := json.Marshal(map[string]any{
		"dataset": "bom-credit", "csv": csv.String(), "epochs": 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	inline := auditReq(string(inlineBody))
	if !inline.CacheHit {
		t.Fatal("inline audit of identical bytes should hit the report cache the ref audit filled")
	}
	if inline.Report.Overall != byRef.Report.Overall {
		t.Fatalf("grades diverge across upload paths: %s vs %s", inline.Report.Overall, byRef.Report.Overall)
	}

	// Re-audit by ref: O(1) resolve + cache hit.
	again := auditReq(fmt.Sprintf(`{"dataset_ref":%q,"epochs":5}`, meta.Ref))
	if !again.CacheHit {
		t.Fatal("repeat ref audit should be a cache hit")
	}
}

func TestHTTPAuditUnknownRef(t *testing.T) {
	srv, _ := newDatasetTestServer(t)
	resp, body := postJSON(t, srv.URL+"/v1/audit", `{"dataset_ref":"no-such-ref"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "unknown dataset_ref") {
		t.Fatalf("error body: %s", body)
	}
}

func TestHTTPMetricsIncludeDatasetGauges(t *testing.T) {
	srv, reg := newDatasetTestServer(t)
	if _, err := reg.Put("g", stubRequest(1).Data); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Datasets *dataset.Snapshot `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Datasets == nil || snap.Datasets.Resident != 1 || snap.Datasets.Bytes == 0 {
		t.Fatalf("dataset gauges = %+v", snap.Datasets)
	}
}
