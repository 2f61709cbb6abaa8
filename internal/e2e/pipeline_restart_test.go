package e2e

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"github.com/responsible-data-science/rds/internal/pipeline"
	"github.com/responsible-data-science/rds/internal/policy"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/synth"
)

// pollRecord fetches the pipeline record until pred holds (or the
// deadline passes, failing the test).
func pollRecord(t *testing.T, url string, pred func(pipeline.Record) bool) pipeline.Record {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		var rec pipeline.Record
		err = json.NewDecoder(resp.Body).Decode(&rec)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
		if pred(rec) {
			return rec
		}
		if time.Now().After(deadline) {
			t.Fatalf("record at %s never satisfied predicate: %+v", url, rec)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func auditDetail(t *testing.T, rec pipeline.Record, i int) pipeline.AuditDetail {
	t.Helper()
	var d pipeline.AuditDetail
	if err := json.Unmarshal(rec.Stages[i].Detail, &d); err != nil {
		t.Fatalf("stage %d detail: %v", i, err)
	}
	return d
}

// TestPipelineRestartEndToEnd is the staged-runtime durability
// acceptance test: submit the full seven-stage curriculum over HTTP,
// hard-stop the service mid-run, reboot over the same state dir, and
// assert the pipeline resumes at its last completed stage and finishes
// with the mitigated grades — byte-identical, stage for stage, to an
// uninterrupted run of the same spec.
func TestPipelineRestartEndToEnd(t *testing.T) {
	stateDir := t.TempDir()

	// Big enough that individual stages take real wall-clock time, so
	// the hard stop reliably lands mid-run.
	data, err := synth.Credit(synth.CreditConfig{N: 4000, Bias: 1.0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	csv, err := data.CSVString()
	if err != nil {
		t.Fatal(err)
	}

	// ---- First life -------------------------------------------------
	a := boot(t, stateDir)

	var ds struct {
		Ref string `json:"ref"`
	}
	post(t, a.srv.URL+"/v1/datasets", "text/csv", []byte(csv), &ds)

	// Choreograph a deterministic kill point with gate tasks on the
	// engine (boot runs 2 workers; stages and gates share the default
	// tenant's pipeline-class FIFO):
	//
	//	1. gate1 ×2 occupy both workers
	//	2. the pipeline's first stage queues behind them
	//	3. gate2 ×2 queue behind the first stage
	//	4. releasing gate1 lets exactly one stage run — its successor
	//	   queues behind the gate2 pair, which re-block both workers
	//	5. hardStop closes the scheduler; releasing gate2 lets the
	//	   workers drain the queued stage, whose readmission then fails
	//	   against the closed scheduler — the interrupted run has
	//	   exactly two completed stages durably on disk
	gate1, gate2 := make(chan struct{}), make(chan struct{})
	gate := func(ch chan struct{}) serve.JobSpec {
		return serve.JobSpec{Stages: []serve.Stage{{
			Run: func(ctx context.Context) (any, error) { <-ch; return nil, nil },
		}}}
	}
	for i := 0; i < 2; i++ {
		if _, err := a.engine.Submit(gate(gate1)); err != nil {
			t.Fatal(err)
		}
	}
	spec, _ := json.Marshal(map[string]any{
		"dataset_ref": ds.Ref,
		"epochs":      60,
		"seed":        5,
	})
	var rec pipeline.Record
	post(t, a.srv.URL+"/v1/pipelines", "application/json", spec, &rec)
	if rec.ID == "" || len(rec.Spec.Stages) != 7 {
		t.Fatalf("submitted record = %+v, want the default 7-stage curriculum", rec)
	}
	for i := 0; i < 2; i++ {
		if _, err := a.engine.Submit(gate(gate2)); err != nil {
			t.Fatal(err)
		}
	}
	close(gate1)

	mid := pollRecord(t, a.srv.URL+"/v1/pipelines/"+rec.ID, func(r pipeline.Record) bool {
		return len(r.Stages) >= 1
	})
	if mid.Status == serve.StatusDone {
		t.Fatalf("run finished before the hard stop (stages %d)", len(mid.Stages))
	}
	// Pull the plug. Close blocks until the workers drain, so gate2
	// lifts once the scheduler has already stopped admitting.
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(gate2)
	}()
	a.hardStop()

	// ---- Second life ------------------------------------------------
	b := boot(t, stateDir)
	defer b.hardStop()
	defer b.registry.Close()

	resumed := pollRecord(t, b.srv.URL+"/v1/pipelines/"+rec.ID, func(r pipeline.Record) bool {
		return r.Status == serve.StatusDone || r.Status == serve.StatusFailed
	})
	if resumed.Status != serve.StatusDone {
		t.Fatalf("resumed run = %s (%s)", resumed.Status, resumed.Error)
	}
	if resumed.Resumed < 1 {
		t.Fatalf("resumed counter = %d, want >= 1", resumed.Resumed)
	}
	if len(resumed.Stages) != 7 {
		t.Fatalf("resumed run completed %d stages, want 7", len(resumed.Stages))
	}

	// The pre-kill stage records stand untouched (same indices, done).
	for i, s := range resumed.Stages {
		if s.Index != i || s.Status != serve.StatusDone {
			t.Fatalf("stage %d after resume = %+v", i, s)
		}
	}

	// Curriculum semantics survived the kill: the mitigated re-audit
	// grades no worse than the unmitigated audit with better disparate
	// impact, and the private re-audit grades by the true attribute.
	initial, mitigated, private := auditDetail(t, resumed, 1), auditDetail(t, resumed, 3), auditDetail(t, resumed, 6)
	if initial.Overall != policy.Red {
		t.Fatalf("unmitigated audit on bias-1.0 data = %s, want red", initial.Overall)
	}
	if mitigated.Overall < initial.Overall || mitigated.DisparateImpact <= initial.DisparateImpact {
		t.Fatalf("mitigation lost across restart: %s DI %v -> %s DI %v",
			initial.Overall, initial.DisparateImpact, mitigated.Overall, mitigated.DisparateImpact)
	}
	if !private.TrueGroups || private.EpsSpent != 1.0 {
		t.Fatalf("private re-audit = %+v, want true-group audit with eps_spent 1", private)
	}

	// Deterministic-replay equivalence: an uninterrupted run of the
	// same spec in the second life produces byte-identical stage
	// details — the kill changed nothing but the Resumed counter.
	var fresh pipeline.Record
	post(t, b.srv.URL+"/v1/pipelines", "application/json", spec, &fresh)
	freshDone := pollRecord(t, b.srv.URL+"/v1/pipelines/"+fresh.ID, func(r pipeline.Record) bool {
		return r.Status == serve.StatusDone || r.Status == serve.StatusFailed
	})
	if freshDone.Status != serve.StatusDone {
		t.Fatalf("fresh run = %s (%s)", freshDone.Status, freshDone.Error)
	}
	for i := range freshDone.Stages {
		if string(freshDone.Stages[i].Detail) != string(resumed.Stages[i].Detail) {
			t.Fatalf("stage %d: resumed run diverged from uninterrupted run:\n%s\n%s",
				i, resumed.Stages[i].Detail, freshDone.Stages[i].Detail)
		}
	}

	// The tenant responsibility report rolls up the remediation plane.
	var report struct {
		Pipelines *struct {
			Total int `json:"total"`
			Live  int `json:"live"`
		} `json:"pipelines"`
	}
	get(t, b.srv.URL+"/v1/tenants/default/report", &report)
	if report.Pipelines == nil || report.Pipelines.Total < 2 {
		t.Fatalf("tenant report pipelines section = %+v, want both runs counted", report.Pipelines)
	}
}
