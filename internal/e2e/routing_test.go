package e2e

import (
	"fmt"
	"net/http"
	"testing"

	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/monitor"
	"github.com/responsible-data-science/rds/internal/pipeline"
	"github.com/responsible-data-science/rds/internal/synth"
)

// TestLookAlikePathsReachNoResource pins whole-segment routing on the
// fully mounted service: a path that only shares a prefix with a
// resource's path (the id glued on without its slash) answers 404 and
// leaves the resource in place, and a known path under the wrong
// method answers 405 naming the allowed ones.
func TestLookAlikePathsReachNoResource(t *testing.T) {
	svc := boot(t, t.TempDir())
	defer svc.hardStop()
	base := svc.srv.URL

	data, err := synth.Credit(synth.CreditConfig{N: 400, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	csv, err := data.CSVString()
	if err != nil {
		t.Fatal(err)
	}
	var ds dataset.Meta
	post(t, base+"/v1/datasets", "text/csv", []byte(csv), &ds)
	var mon monitor.Summary
	post(t, base+"/v1/monitors", "application/json", []byte(`{"name":"lookalike"}`), &mon)
	var run pipeline.Record
	post(t, base+"/v1/pipelines", "application/json", []byte(fmt.Sprintf(`{"dataset_ref":%q}`, ds.Ref)), &run)
	if code, _, body := tenantReq(t, http.MethodPut, base+"/v1/tenants/acme", "", "application/json", []byte(`{"weight":2}`)); code != http.StatusOK {
		t.Fatalf("installing acme quota: %d %s", code, body)
	}

	for _, c := range []struct{ method, path string }{
		{http.MethodDelete, "/v1/datasets" + ds.Ref},
		{http.MethodDelete, "/v1/monitors" + mon.ID},
		{http.MethodGet, "/v1/tenantsacme"},
		{http.MethodGet, "/v1/tenantsacme/report"},
		{http.MethodGet, "/v1/monitors" + mon.ID + "/history"},
		{http.MethodGet, "/v1/pipelines" + run.ID},
	} {
		if code, _, body := tenantReq(t, c.method, base+c.path, "", "", nil); code != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404: %s", c.method, c.path, code, body)
		}
	}
	// The look-alike deletes removed nothing.
	get(t, base+"/v1/datasets/"+ds.Ref, &ds)
	get(t, base+"/v1/monitors/"+mon.ID, &mon)

	code, hdr, body := tenantReq(t, http.MethodPost, base+"/healthz", "", "", nil)
	if code != http.StatusMethodNotAllowed || hdr.Get("Allow") != http.MethodGet {
		t.Errorf("POST /healthz = %d with Allow %q, want 405 with Allow GET: %s", code, hdr.Get("Allow"), body)
	}
}
