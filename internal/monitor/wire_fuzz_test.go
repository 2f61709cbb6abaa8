package monitor

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/responsible-data-science/rds/internal/httpx"
)

// FuzzMonitorSpecWire feeds arbitrary bodies to the POST /v1/monitors
// decoder. It must never panic, and a body it accepts must re-marshal
// to one that decodes to the same monitor spec, training spec and
// policy included.
func FuzzMonitorSpecWire(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"name":"m","window_ms":1000,"slide_ms":250,"audit_every":2,"baseline_ref":"abc","seed":3}`,
		`{"name":"m","target":"y","sensitive":"sex","protected":"F","reference":"M",` +
			`"mitigation":"threshold","test_fraction":0.25,"epochs":7,` +
			`"policy":{"min_disparate_impact":0.7,"correction":"holm","require_lineage":true}}`,
		`{"name":"m","drift":{"psi_threshold":0.3},"webhook":"http://127.0.0.1:1/hook","history":4}`,
		`{"name":"m","bogus":1}`,
		`{"name":"m","target":5}`,
		`{"name":"m","epochs":"7"}`,
		`{"name":"m","policy":[1]}`,
		`{"name":"m","policy":{"min_disparate_impact":2}}`,
		`{"name":"m","mitigation":"wish"}`,
	} {
		f.Add(seed)
	}
	decode := func(body string) (*SpecWire, Spec, error) {
		r := httptest.NewRequest("POST", "/v1/monitors", strings.NewReader(body))
		var wire SpecWire
		if err := httpx.DecodeJSON(httptest.NewRecorder(), r, &wire); err != nil {
			return nil, Spec{}, err
		}
		spec, err := wire.spec()
		return &wire, spec, err
	}
	f.Fuzz(func(t *testing.T, body string) {
		wire, spec, err := decode(body)
		if err != nil {
			return
		}
		again, err := json.Marshal(wire)
		if err != nil {
			t.Fatalf("re-marshal of an accepted wire: %v", err)
		}
		_, spec2, err := decode(string(again))
		if err != nil {
			t.Fatalf("re-marshaled body %s rejected: %v", again, err)
		}
		if !reflect.DeepEqual(spec, spec2) {
			t.Fatalf("round trip of %q changed the spec:\n%+v\n%+v", body, spec, spec2)
		}
	})
}
