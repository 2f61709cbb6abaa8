package e2e

import (
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/httpx"
	"github.com/responsible-data-science/rds/internal/monitor"
	"github.com/responsible-data-science/rds/internal/pipeline"
	"github.com/responsible-data-science/rds/internal/synth"
	"github.com/responsible-data-science/rds/internal/tenantapi"
)

// TestTenantComesOnlyFromHeader is the identity acceptance test over
// the full route table. On every data plane (audit jobs, datasets,
// monitors, pipeline runs) a resource created with X-RDS-Tenant: acme
// reads 200 for acme and 404 for beta; a header-less request is the
// default tenant, so it reads the default tenant's resources and lists
// only those; a body "tenant" field answers 400 as an unknown field;
// and ?tenant= answers 400 on every route, /v1/tenants included.
func TestTenantComesOnlyFromHeader(t *testing.T) {
	svc := boot(t, t.TempDir())
	defer svc.hardStop()
	base := svc.srv.URL

	// create sends one request as ten and returns the new resource's id
	// (or ref) from its 2xx body.
	create := func(ten, path, contentType string, body []byte) string {
		t.Helper()
		code, _, raw := tenantReq(t, http.MethodPost, base+path, ten, contentType, body)
		var out struct {
			ID  string `json:"id"`
			Ref string `json:"ref"`
		}
		if code/100 != 2 || json.Unmarshal(raw, &out) != nil || out.ID+out.Ref == "" {
			t.Fatalf("POST %s as %q = %d %s", path, ten, code, raw)
		}
		return out.ID + out.Ref
	}
	csvOf := func(seed uint64) []byte {
		t.Helper()
		f, err := synth.Credit(synth.CreditConfig{N: 300, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		csv, err := f.CSVString()
		if err != nil {
			t.Fatal(err)
		}
		return []byte(csv)
	}

	// One resource per plane for acme and one for the default tenant
	// (header-less). Distinct bytes give the two datasets distinct refs.
	owned := map[string]map[string]string{"acme": {}, "": {}}
	for ten, seed := range map[string]uint64{"acme": 1, "": 2} {
		ref := create(ten, "/v1/datasets?name=credit", "text/csv", csvOf(seed))
		owned[ten]["datasets"] = ref
		owned[ten]["audit"] = create(ten, "/v1/audit", "application/json",
			[]byte(fmt.Sprintf(`{"dataset_ref":%q,"epochs":3,"async":true}`, ref)))
		owned[ten]["monitors"] = create(ten, "/v1/monitors", "application/json",
			[]byte(`{"name":"credit","window_ms":60000}`))
		owned[ten]["pipelines"] = create(ten, "/v1/pipelines", "application/json",
			[]byte(fmt.Sprintf(`{"dataset_ref":%q,"epochs":3,"stages":["train"]}`, ref)))
	}

	for _, plane := range []struct {
		name, item, list string
		// tenantBody is a create body naming a tenant field.
		tenantBody string
	}{
		{"audit", "/v1/audit/", "", `{"synthetic":{"n":50},"tenant":"acme"}`},
		{"datasets", "/v1/datasets/", "/v1/datasets", `{"csv":"a\n1\n","tenant":"acme"}`},
		{"monitors", "/v1/monitors/", "/v1/monitors", `{"name":"other","tenant":"acme"}`},
		{"pipelines", "/v1/pipelines/", "/v1/pipelines", fmt.Sprintf(`{"dataset_ref":%q,"tenant":"acme"}`, owned["acme"]["datasets"])},
	} {
		t.Run(plane.name, func(t *testing.T) {
			acme, def := owned["acme"][plane.name], owned[""][plane.name]
			for _, c := range []struct {
				ten, id string
				want    int
			}{
				{"acme", acme, http.StatusOK},
				{"beta", acme, http.StatusNotFound},
				{"", acme, http.StatusNotFound},
				{"", def, http.StatusOK},
				{"acme", def, http.StatusNotFound},
			} {
				if code, _, raw := tenantReq(t, http.MethodGet, base+plane.item+c.id, c.ten, "", nil); code != c.want {
					t.Errorf("GET %s%s as %q = %d, want %d: %s", plane.item, c.id, c.ten, code, c.want, raw)
				}
			}
			if plane.list != "" {
				for ten, want := range map[string]string{"acme": acme, "": def} {
					if got := listIDs(t, base+plane.list, ten); !slices.Equal(got, []string{want}) {
						t.Errorf("GET %s as %q lists %v, want just %s", plane.list, ten, got, want)
					}
				}
			}
			code, _, raw := tenantReq(t, http.MethodPost, base+strings.TrimSuffix(plane.item, "/"), "", "application/json", []byte(plane.tenantBody))
			if code != http.StatusBadRequest || !strings.Contains(string(raw), `unknown field \"tenant\"`) {
				t.Errorf("body tenant on %s = %d %s, want 400 naming the field", plane.name, code, raw)
			}
		})
	}

	// ?tenant= answers 400 from the router on every route. A wildcard
	// segment matches any value, so "x" reaches each route.
	routes := []httpx.Route{
		{Method: http.MethodPost, Pattern: "/v1/audit"},
		{Method: http.MethodGet, Pattern: "/v1/audit/{id}"},
		{Method: http.MethodGet, Pattern: "/healthz"},
		{Method: http.MethodGet, Pattern: "/metrics"},
	}
	routes = append(routes, dataset.NewHandler(nil).Routes()...)
	routes = append(routes, monitor.NewHandler(nil).Routes()...)
	routes = append(routes, pipeline.NewHandler(nil).Routes()...)
	routes = append(routes, tenantapi.NewHandler(nil).Routes()...)
	wildcard := regexp.MustCompile(`\{[^}]*\}`)
	for _, rt := range routes {
		path := wildcard.ReplaceAllString(rt.Pattern, "x") + "?tenant=acme"
		code, _, raw := tenantReq(t, rt.Method, base+path, "acme", "application/json", []byte(`{}`))
		if code != http.StatusBadRequest || !strings.Contains(string(raw), `unknown query parameter \"tenant\"`) {
			t.Errorf("%s %s = %d %s, want 400 naming tenant", rt.Method, path, code, raw)
		}
	}
}

// listIDs returns the ids (or dataset refs) a list route shows to ten,
// whether the body is a bare array or {"pipelines": [...]}.
func listIDs(t *testing.T, url, ten string) []string {
	t.Helper()
	code, _, raw := tenantReq(t, http.MethodGet, url, ten, "", nil)
	if code != http.StatusOK {
		t.Fatalf("GET %s as %q = %d: %s", url, ten, code, raw)
	}
	type item struct {
		ID  string `json:"id"`
		Ref string `json:"ref"`
	}
	var items []item
	if err := json.Unmarshal(raw, &items); err != nil {
		var wrapped struct {
			Pipelines []item `json:"pipelines"`
		}
		if err := json.Unmarshal(raw, &wrapped); err != nil {
			t.Fatalf("GET %s: %v: %s", url, err, raw)
		}
		items = wrapped.Pipelines
	}
	ids := []string{}
	for _, it := range items {
		ids = append(ids, it.ID+it.Ref)
	}
	return ids
}
