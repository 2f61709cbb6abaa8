package pipeline

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/responsible-data-science/rds/internal/httpx"
)

// FuzzPipelineSpec feeds arbitrary bodies to the POST /v1/pipelines
// decoder. It must never panic, and a spec it accepts must persist as
// a record spec that decodes to the same normalized spec, which
// resolves to the same training spec and policy: what a restart
// resumes is what was submitted.
func FuzzPipelineSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"dataset_ref":"abc"}`,
		`{"dataset_ref":"abc","name":"n","exclude":["income"],"epsilon":0.5,"seed":3,"stages":["train","audit"]}`,
		`{"dataset_ref":"abc","target":"y","sensitive":"sex","protected":"F","reference":"M",` +
			`"mitigation":"threshold","test_fraction":0.25,"epochs":7,` +
			`"policy":{"min_disparate_impact":0.7,"correction":"holm","require_lineage":true}}`,
		`{"dataset_ref":"abc","bogus":1}`,
		`{"dataset_ref":"abc","target":5}`,
		`{"dataset_ref":"abc","epochs":"7"}`,
		`{"dataset_ref":"abc","policy":[1]}`,
		`{"dataset_ref":"abc","policy":{"min_disparate_impact":2}}`,
		`{"dataset_ref":"abc","mitigation":"wish"}`,
		`{"dataset_ref":"abc","stages":["audit"]}`,
	} {
		f.Add(seed)
	}
	decode := func(body []byte) (Spec, error) {
		r := httptest.NewRequest("POST", "/v1/pipelines", bytes.NewReader(body))
		var spec Spec
		if err := httpx.DecodeJSON(httptest.NewRecorder(), r, &spec); err != nil {
			return Spec{}, err
		}
		return spec.withDefaults()
	}
	f.Fuzz(func(t *testing.T, body string) {
		spec, err := decode([]byte(body))
		if err != nil {
			return
		}
		persisted, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal of an accepted spec: %v", err)
		}
		spec2, err := decode(persisted)
		if err != nil {
			t.Fatalf("persisted spec %s rejected: %v", persisted, err)
		}
		if again, _ := json.Marshal(spec2); !bytes.Equal(again, persisted) {
			t.Fatalf("persisted spec changed on restore:\n%s\n%s", persisted, again)
		}
		train, pol, err := spec.Resolve()
		train2, pol2, err2 := spec2.Resolve()
		if err != nil || err2 != nil {
			t.Fatalf("accepted spec does not resolve: %v / %v", err, err2)
		}
		if !reflect.DeepEqual(train, train2) || !reflect.DeepEqual(pol, pol2) {
			t.Fatalf("round trip of %q changed the resolution:\n%+v %+v\n%+v %+v", body, train, pol, train2, pol2)
		}
	})
}
