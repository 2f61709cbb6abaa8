package monitor

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/responsible-data-science/rds/internal/httpx"
	"github.com/responsible-data-science/rds/internal/stream"
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

// FuzzIngestWire feeds arbitrary bodies to the POST
// /v1/monitors/{id}/ingest decoder and materializes the rows of every
// body it accepts. It must never panic; an accepted body must
// re-marshal to one that decodes to the same wire; and the arrival it
// stamps must pass stream.Arrival.Validate exactly when time_ms is not
// negative, so no negative timestamp reaches the windower.
func FuzzIngestWire(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"time_ms":0,"csv":"income,group,approved\n1,A,1\n2,B,0\n"}`,
		`{"time_ms":60000,"synthetic":{"n":20,"bias":0,"group_b_fraction":0.5,"seed":3},"flush":true}`,
		`{"time_ms":180000,"csv":"income,group\n"}`,
		`{"time_ms":-5,"synthetic":{"n":10}}`,
		`{"time_ms":-9223372036854775808,"csv":"a\n1\n"}`,
		`{"time_ms":9223372036854775807,"csv":"a\n1\n"}`,
		`{"time_ms":1e3,"csv":"a\n1\n"}`,
		`{"time_ms":"1","csv":"a\n1\n"}`,
		`{"csv":"a\n1\n","synthetic":{"n":1}}`,
		`{"csv":"a,b\n1\n"}`,
		`{"time_ms":0,"csv":"a\n1\n","batch_rows":10}`,
	} {
		f.Add(seed)
	}
	decode := func(body string) (*IngestWire, error) {
		r := httptest.NewRequest("POST", "/v1/monitors/mon-000001/ingest", strings.NewReader(body))
		var wire IngestWire
		if err := httpx.DecodeJSON(httptest.NewRecorder(), r, &wire); err != nil {
			return nil, err
		}
		return &wire, nil
	}
	f.Fuzz(func(t *testing.T, body string) {
		wire, err := decode(body)
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
		if !reflect.DeepEqual(wire, wire2) {
			t.Fatalf("round trip of %q changed the wire:\n%+v\n%+v", body, wire, wire2)
		}
		// A synthetic batch costs its row count; keep generated ones
		// small (n <= 0 selects a 5000-row default).
		if wire.Synthetic != nil && wire.Synthetic.N > 1000 {
			return
		}
		rows, err := wire.rows()
		if err != nil {
			return
		}
		err = stream.Arrival{TimeMS: wire.TimeMS, Rows: rows}.Validate()
		if (wire.TimeMS < 0) != (err != nil) {
			t.Fatalf("time_ms %d: Validate = %v", wire.TimeMS, err)
		}
	})
}
