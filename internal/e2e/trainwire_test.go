package e2e

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/monitor"
	"github.com/responsible-data-science/rds/internal/policy"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/synth"
)

// TestTrainingFieldsResolveAlikeOnEveryPlane sends the same training
// and grading fields to POST /v1/audit (as JSON, and as text/csv query
// parameters where the query form has them), POST /v1/monitors and
// POST /v1/pipelines, and checks the training spec and policy each
// plane resolves. An audit's resolution is observed through the report
// cache: an in-process request carrying the expected spec and policy
// must hit the report the HTTP audit left, since the cache key hashes
// both. Unknown fields answer 400 on every plane.
func TestTrainingFieldsResolveAlikeOnEveryPlane(t *testing.T) {
	s := boot(t, t.TempDir())
	defer s.hardStop()
	defer s.registry.Close()

	credit, err := synth.Credit(synth.CreditConfig{N: 400, Bias: 1.0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	csv, err := credit.CSVString()
	if err != nil {
		t.Fatal(err)
	}
	// Rename the label and group columns so that only an honoured
	// target/sensitive field can train on them.
	header, rest, _ := strings.Cut(csv, "\n")
	header = strings.NewReplacer("approved", "label", "group", "sex").Replace(header)
	csv = header + "\n" + rest
	data, err := frame.ReadCSVString(csv)
	if err != nil {
		t.Fatal(err)
	}
	var ds struct {
		Ref string `json:"ref"`
	}
	post(t, s.srv.URL+"/v1/datasets?name=tw", "text/csv", []byte(csv), &ds)

	strict := policy.FACTPolicy{MinDisparateImpact: 0.7, MaxEqOppDifference: 0.2, Correction: "holm", RequireLineage: true}
	renamed := map[string]any{"target": "label", "sensitive": "sex"}
	cases := []struct {
		name   string
		fields map[string]any
		// queryForm marks fields the text/csv query form can carry.
		queryForm bool
		want      core.TrainSpec
		wantPol   policy.FACTPolicy
		// pipelineMitigation is what a pipeline record states: its
		// mitigation defaults to reweigh.
		pipelineMitigation string
	}{{
		name:               "columns only",
		fields:             renamed,
		queryForm:          true,
		want:               core.TrainSpec{Target: "label", Sensitive: "sex", Protected: "B", Reference: "A"},
		wantPol:            serve.DefaultPolicy(),
		pipelineMitigation: "reweigh",
	}, {
		name: "every field",
		fields: map[string]any{
			"target": "label", "sensitive": "sex", "protected": "A", "reference": "B",
			"mitigation": "threshold", "test_fraction": 0.25, "epochs": 7, "policy": strict,
		},
		want: core.TrainSpec{Target: "label", Sensitive: "sex", Protected: "A", Reference: "B",
			Mitigation: core.MitigateThreshold, TestFraction: 0.25, Epochs: 7},
		wantPol:            strict,
		pipelineMitigation: "threshold",
	}, {
		name:               "mitigation by query",
		fields:             map[string]any{"target": "label", "sensitive": "sex", "reference": "A", "mitigation": "reweigh"},
		queryForm:          true,
		want:               core.TrainSpec{Target: "label", Sensitive: "sex", Protected: "B", Reference: "A", Mitigation: core.MitigateReweigh},
		wantPol:            serve.DefaultPolicy(),
		pipelineMitigation: "reweigh",
	}, {
		name:               "explicit empty policy",
		fields:             map[string]any{"target": "label", "sensitive": "sex", "mitigation": "none", "policy": map[string]any{}},
		want:               core.TrainSpec{Target: "label", Sensitive: "sex", Protected: "B", Reference: "A"},
		wantPol:            policy.FACTPolicy{},
		pipelineMitigation: "none",
	}}

	seed := uint64(0)
	// cached reports whether an in-process audit with the expected spec
	// and policy hits the report a request left under seed.
	cached := func(spec core.TrainSpec, pol policy.FACTPolicy, seed uint64) bool {
		t.Helper()
		job, err := s.engine.AuditJob(&serve.Request{Dataset: "tw", Data: data, Policy: pol, Spec: spec, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		id, err := s.engine.Submit(job)
		if err != nil {
			t.Fatal(err)
		}
		js, err := s.engine.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		return js.CacheHit
	}
	var jsonSeeds []uint64
	for _, tc := range cases {
		with := func(extra map[string]any) []byte {
			body := map[string]any{}
			for k, v := range tc.fields {
				body[k] = v
			}
			for k, v := range extra {
				body[k] = v
			}
			b, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}

		seed++
		jsonSeeds = append(jsonSeeds, seed)
		post(t, s.srv.URL+"/v1/audit", "application/json", with(map[string]any{"dataset_ref": ds.Ref, "dataset": "tw", "seed": seed}), nil)
		if !cached(tc.want, tc.wantPol, seed) {
			t.Errorf("%s: JSON audit did not resolve to %+v under %+v", tc.name, tc.want, tc.wantPol)
		}
		if tc.queryForm {
			seed++
			q := url.Values{"dataset": {"tw"}, "seed": {fmt.Sprint(seed)}}
			for k, v := range tc.fields {
				q.Set(k, v.(string))
			}
			post(t, s.srv.URL+"/v1/audit?"+q.Encode(), "text/csv", []byte(csv), nil)
			if !cached(tc.want, tc.wantPol, seed) {
				t.Errorf("%s: text/csv audit did not resolve to %+v under %+v", tc.name, tc.want, tc.wantPol)
			}
		}

		var sum monitor.Summary
		post(t, s.srv.URL+"/v1/monitors", "application/json", with(map[string]any{"name": tc.name}), &sum)
		m, ok := s.registry.Get(sum.ID)
		if !ok {
			t.Fatalf("%s: monitor %s not registered", tc.name, sum.ID)
		}
		if got := m.Spec(); !reflect.DeepEqual(got.Train, tc.want) || !reflect.DeepEqual(got.Policy, tc.wantPol) {
			t.Errorf("%s: monitor resolved %+v under %+v, want %+v under %+v", tc.name, got.Train, got.Policy, tc.want, tc.wantPol)
		}

		var rec struct {
			Spec map[string]any `json:"spec"`
		}
		post(t, s.srv.URL+"/v1/pipelines", "application/json", with(map[string]any{"dataset_ref": ds.Ref, "stages": []string{"train"}}), &rec)
		want := map[string]any{
			"target": tc.want.Target, "sensitive": tc.want.Sensitive, "protected": tc.want.Protected,
			"reference": tc.want.Reference, "mitigation": tc.pipelineMitigation,
		}
		if tc.want.TestFraction != 0 {
			want["test_fraction"] = tc.want.TestFraction
		}
		if tc.want.Epochs != 0 {
			want["epochs"] = float64(tc.want.Epochs)
		}
		if p, ok := tc.fields["policy"]; ok {
			b, _ := json.Marshal(p)
			var v any
			_ = json.Unmarshal(b, &v)
			want["policy"] = v
		}
		for _, k := range []string{"target", "sensitive", "protected", "reference", "mitigation", "test_fraction", "epochs", "policy"} {
			if !reflect.DeepEqual(rec.Spec[k], want[k]) {
				t.Errorf("%s: pipeline record spec %s = %v, want %v", tc.name, k, rec.Spec[k], want[k])
			}
		}
	}
	// The cache check has teeth: a spec one field away misses.
	off := cases[1].want
	off.Epochs++
	if cached(off, cases[1].wantPol, jsonSeeds[1]) {
		t.Error("an audit with a different epoch cap hit the cache")
	}

	for _, path := range []string{"/v1/audit", "/v1/monitors", "/v1/pipelines"} {
		resp, err := http.Post(s.srv.URL+path, "application/json", strings.NewReader(`{"name":"x","dataset_ref":"`+ds.Ref+`","bogus":1}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s with an unknown field = %d, want 400", path, resp.StatusCode)
		}
	}
}
