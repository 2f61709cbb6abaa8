package serve

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// FuzzAuditRequestWire feeds arbitrary bodies to the POST /v1/audit
// JSON decoder. It must never panic, and a body it accepts must
// re-marshal to one that decodes and resolves to the same training
// spec and policy.
func FuzzAuditRequestWire(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"dataset_ref":"abc","seed":3,"async":true}`,
		`{"csv":"a,b\n1,2\n","target":"y","sensitive":"sex","protected":"F","reference":"M",` +
			`"mitigation":"threshold","test_fraction":0.25,"epochs":7,` +
			`"policy":{"min_disparate_impact":0.7,"correction":"holm","require_lineage":true}}`,
		`{"mitigation":"reweigh","policy":{}}`,
		`{"bogus":1}`,
		`{"target":5}`,
		`{"epochs":"7"}`,
		`{"test_fraction":true}`,
		`{"policy":[1]}`,
		`{"policy":{"min_disparate_impact":2}}`,
		`{"mitigation":"wish"}`,
	} {
		f.Add(seed)
	}
	decode := func(body string) (*AuditRequestWire, error) {
		r := httptest.NewRequest("POST", "/v1/audit", strings.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		return decodeWire(r)
	}
	f.Fuzz(func(t *testing.T, body string) {
		wire, err := decode(body)
		if err != nil {
			return
		}
		spec, pol, err := wire.Resolve()
		if err != nil {
			return
		}
		again, err := json.Marshal(wire)
		if err != nil {
			t.Fatalf("re-marshal of an accepted wire: %v", err)
		}
		wire2, err := decode(string(again))
		if err != nil {
			t.Fatalf("re-marshaled body %s rejected: %v", again, err)
		}
		spec2, pol2, err := wire2.Resolve()
		if err != nil {
			t.Fatalf("re-marshaled body %s does not resolve: %v", again, err)
		}
		if !reflect.DeepEqual(spec, spec2) || !reflect.DeepEqual(pol, pol2) {
			t.Fatalf("round trip of %q changed the resolution:\n%+v %+v\n%+v %+v", body, spec, pol, spec2, pol2)
		}
	})
}
