package tenantapi

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/responsible-data-science/rds/internal/httpx"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// FuzzTenantQuotas feeds arbitrary bodies to the PUT /v1/tenants/{id}
// decoder and validates what it decodes, as the handler does. It must
// never panic, quotas that pass Validate must have no negative field,
// and accepted quotas must re-marshal to a body that decodes to the
// same quotas.
func FuzzTenantQuotas(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"weight":2,"rate_per_sec":0.5,"burst":3,"max_queue":8}`,
		`{"max_registry_bytes":1048576,"max_datasets":4,"max_monitors":2,"max_pipelines":1}`,
		`{"rate_per_sec":-0}`,
		`{"weight":-1}`,
		`{"max_registry_bytes":-9223372036854775808}`,
		`{"rate_per_sec":1e308}`,
		`{"burst":1.5}`,
		`{"weight":"2"}`,
		`{"max_monitors":1,"bogus":1}`,
		`[1]`,
	} {
		f.Add(seed)
	}
	decode := func(body string) (tenant.Quotas, error) {
		r := httptest.NewRequest("PUT", "/v1/tenants/acme", strings.NewReader(body))
		var q tenant.Quotas
		if err := httpx.DecodeJSON(httptest.NewRecorder(), r, &q); err != nil {
			return q, err
		}
		return q, q.Validate()
	}
	f.Fuzz(func(t *testing.T, body string) {
		q, err := decode(body)
		if err != nil {
			return
		}
		if q.Weight < 0 || q.RatePerSec < 0 || q.Burst < 0 || q.MaxQueue < 0 ||
			q.MaxRegistryBytes < 0 || q.MaxDatasets < 0 || q.MaxMonitors < 0 || q.MaxPipelines < 0 {
			t.Fatalf("accepted quotas with a negative field: %+v", q)
		}
		again, err := json.Marshal(q)
		if err != nil {
			t.Fatalf("re-marshal of accepted quotas: %v", err)
		}
		q2, err := decode(string(again))
		if err != nil {
			t.Fatalf("re-marshaled body %s rejected: %v", again, err)
		}
		if !reflect.DeepEqual(q, q2) {
			t.Fatalf("round trip of %q changed the quotas:\n%+v\n%+v", body, q, q2)
		}
	})
}
