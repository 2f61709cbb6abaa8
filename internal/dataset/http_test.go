package dataset

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/responsible-data-science/rds/internal/httpx"
	"github.com/responsible-data-science/rds/internal/tenant"
)

func newTestServer(t *testing.T, budget int64) (*Registry, *httptest.Server) {
	t.Helper()
	reg := NewRegistry(budget)
	srv := httptest.NewServer(httpx.NewRouter(NewHandler(reg).Routes()...))
	t.Cleanup(srv.Close)
	return reg, srv
}

func decodeMeta(t *testing.T, resp *http.Response, wantStatus int) Meta {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
	}
	var meta Meta
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	return meta
}

func TestHTTPUploadJSONAndRawCSV(t *testing.T) {
	_, srv := newTestServer(t, 1<<20)
	resp, err := http.Post(srv.URL+"/v1/datasets", "application/json",
		strings.NewReader(`{"name":"credit","csv":"id,v\n1,2.5\n2,3.5\n"}`))
	if err != nil {
		t.Fatal(err)
	}
	meta := decodeMeta(t, resp, http.StatusCreated)
	if meta.Ref == "" || meta.Rows != 2 || meta.Name != "credit" {
		t.Fatalf("meta = %+v", meta)
	}

	// The same bytes as a raw text/csv body answer the same ref.
	resp, err = http.Post(srv.URL+"/v1/datasets?name=raw", "text/csv",
		strings.NewReader("id,v\n1,2.5\n2,3.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	again := decodeMeta(t, resp, http.StatusCreated)
	if again.Ref != meta.Ref {
		t.Fatalf("raw upload ref %q != json upload ref %q", again.Ref, meta.Ref)
	}
}

// TestHTTPUploadRawCSVBodyLengths checks that a raw CSV upload parses
// whatever length the request states, none (chunked) or too small, and
// that a body past MaxBodyBytes is still refused with 400.
func TestHTTPUploadRawCSVBodyLengths(t *testing.T) {
	_, srv := newTestServer(t, 1<<20)
	const csv = "id,v\n1,2.5\n2,3.5\n"
	resp, err := http.Post(srv.URL+"/v1/datasets?name=chunked", "text/csv", io.MultiReader(strings.NewReader(csv)))
	if err != nil {
		t.Fatal(err)
	}
	if meta := decodeMeta(t, resp, http.StatusCreated); meta.Rows != 2 {
		t.Fatalf("chunked body: meta = %+v", meta)
	}

	post := func(body io.Reader, length int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/datasets?name=raw", body)
		req.Header.Set("Content-Type", "text/csv")
		req.ContentLength = length
		rec := httptest.NewRecorder()
		srv.Config.Handler.ServeHTTP(rec, req)
		return rec
	}
	if rec := post(strings.NewReader(csv), 4); rec.Code != http.StatusCreated {
		t.Fatalf("understated Content-Length: status %d: %s", rec.Code, rec.Body)
	}
	rec := post(newlines{}, httpx.MaxBodyBytes)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "too large") {
		t.Fatalf("body past MaxBodyBytes: status %d: %s", rec.Code, rec.Body)
	}
}

// newlines is an endless request body.
type newlines struct{}

func (newlines) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '\n'
	}
	return len(p), nil
}

func TestHTTPUploadNDJSON(t *testing.T) {
	_, srv := newTestServer(t, 1<<20)
	resp, err := http.Post(srv.URL+"/v1/datasets?name=events", "application/x-ndjson",
		strings.NewReader(`{"id":1,"ok":true}
{"id":2,"ok":false}
`))
	if err != nil {
		t.Fatal(err)
	}
	meta := decodeMeta(t, resp, http.StatusCreated)
	if meta.Rows != 2 || meta.Cols != 2 || meta.Name != "events" {
		t.Fatalf("meta = %+v", meta)
	}
}

func TestHTTPGetListDelete(t *testing.T) {
	reg, srv := newTestServer(t, 1<<20)
	meta, err := reg.PutAs(tenant.Default, "a", testFrame(t, 1, 20))
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/datasets/" + meta.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeMeta(t, resp, http.StatusOK); got.Ref != meta.Ref {
		t.Fatalf("get = %+v", got)
	}

	resp, err = http.Get(srv.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []Meta
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Fatalf("list = %+v", list)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/datasets/"+meta.Ref, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", dresp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/datasets/" + meta.Ref)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete = %d", resp.StatusCode)
	}
}

func TestHTTPDeletePinnedConflicts(t *testing.T) {
	reg, srv := newTestServer(t, 1<<20)
	meta, err := reg.PutAs(tenant.Default, "a", testFrame(t, 1, 20))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.PinAs(tenant.Default, meta.Ref); !ok {
		t.Fatal("pin failed")
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/datasets/"+meta.Ref, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("delete of pinned dataset = %d, want 409", resp.StatusCode)
	}
}

func TestHTTPOverBudget(t *testing.T) {
	_, srv := newTestServer(t, 64) // far too small for any dataset
	var rows strings.Builder
	rows.WriteString("id,v\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&rows, "%d,%d\n", i, i)
	}
	resp, err := http.Post(srv.URL+"/v1/datasets", "text/csv", strings.NewReader(rows.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("over-budget upload = %d, want 507", resp.StatusCode)
	}
}

func TestHTTPBadUploads(t *testing.T) {
	_, srv := newTestServer(t, 1<<20)
	for name, body := range map[string]string{
		"both sources": `{"csv":"a\n1\n","ndjson":"{\"a\":1}"}`,
		"neither":      `{"name":"x"}`,
		"bad csv":      `{"csv":"a,b\n1\n"}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/datasets", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestHTTPUploadQuery checks which uploads may carry a query: a raw
// text/csv or NDJSON body takes ?name= and nothing else, and a JSON
// envelope, whose name is in its body, takes none. A "tenant" field or
// parameter is refused like any unknown one.
func TestHTTPUploadQuery(t *testing.T) {
	_, srv := newTestServer(t, 1<<20)
	for _, tc := range []struct{ name, query, ct, body, wantErr string }{
		{"json with ?name=", "?name=x", "application/json", `{"csv":"a\n1\n"}`, "in the body"},
		{"json with a tenant field", "", "application/json", `{"csv":"a\n1\n","tenant":"acme"}`, `\"tenant\"`},
		{"csv with ?tenant=", "?name=x&tenant=acme", "text/csv", "a\n1\n", `\"tenant\"`},
		{"ndjson with ?nmae=", "?nmae=x", "application/x-ndjson", `{"a":1}`, `\"nmae\"`},
	} {
		resp, err := http.Post(srv.URL+"/v1/datasets"+tc.query, tc.ct, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.wantErr) {
			t.Errorf("%s: %d %s, want 400 naming %s", tc.name, resp.StatusCode, body, tc.wantErr)
		}
	}
}

// TestHTTPTenantScoping pins the data plane's multi-tenant HTTP
// contract: uploads owned by the header's tenant, tenant-scoped lists,
// cross-tenant refs answering 404, per-tenant dataset-count quotas
// answering 429, and tenant validation at the edge.
func TestHTTPTenantScoping(t *testing.T) {
	reg, srv := newTestServer(t, 1<<20)
	reg.UseQuotas(func(id string) tenant.Quotas {
		if id == "acme" {
			return tenant.Quotas{MaxDatasets: 1}
		}
		return tenant.Quotas{}
	})
	upload := func(ten, csv string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/datasets?name=d", strings.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "text/csv")
		if ten != "" {
			req.Header.Set(httpx.TenantHeader, ten)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	meta := decodeMeta(t, upload("acme", "id,v\n1,2.5\n"), http.StatusCreated)

	// acme is at its MaxDatasets of 1: the next distinct upload is 429.
	resp := upload("acme", "id,v\n1,9.5\n")
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota upload = %d, want 429", resp.StatusCode)
	}
	// Other tenants are unaffected by acme's quota.
	decodeMeta(t, upload("other", "id,v\n1,9.5\n"), http.StatusCreated)

	// Lists are tenant-scoped; the header is the only spelling.
	var list []Meta
	get := func(url, ten string) int {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		if ten != "" {
			req.Header.Set(httpx.TenantHeader, ten)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		list = nil
		json.NewDecoder(resp.Body).Decode(&list)
		return resp.StatusCode
	}
	if code := get(srv.URL+"/v1/datasets", "acme"); code != http.StatusOK || len(list) != 1 || list[0].Ref != meta.Ref {
		t.Fatalf("acme list = %d %+v, want just %s", code, list, meta.Ref)
	}
	if code := get(srv.URL+"/v1/datasets?tenant=acme", ""); code != http.StatusBadRequest {
		t.Fatalf("?tenant=acme list = %d, want 400", code)
	}
	if code := get(srv.URL+"/v1/datasets", ""); code != http.StatusOK || len(list) != 0 {
		t.Fatalf("default list = %d %+v, want empty", code, list)
	}

	// Cross-tenant refs read as absent, for GET and DELETE alike.
	if code := get(srv.URL+"/v1/datasets/"+meta.Ref, ""); code != http.StatusNotFound {
		t.Fatalf("default tenant GET of acme's ref = %d, want 404", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/datasets/"+meta.Ref, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("default tenant DELETE of acme's ref = %d, want 404", resp.StatusCode)
	}

	// Tenant validation happens once at the edge: a malformed header is
	// a 400, not a silent fallback to default, and so is any ?tenant=.
	if code := get(srv.URL+"/v1/datasets", "Bad.Tenant"); code != http.StatusBadRequest {
		t.Fatalf("bad tenant header = %d, want 400", code)
	}
	if code := get(srv.URL+"/v1/datasets?tenant=Bad.Tenant", ""); code != http.StatusBadRequest {
		t.Fatalf("bad tenant query = %d, want 400", code)
	}
	if code := get(srv.URL+"/v1/datasets/"+meta.Ref+"?tenant=Bad.Tenant", ""); code != http.StatusBadRequest {
		t.Fatalf("bad tenant query on ref = %d, want 400", code)
	}
}
