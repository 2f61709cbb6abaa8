package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/policy"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/store/memory"
	"github.com/responsible-data-science/rds/internal/synth"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// world is one assembled pipeline plane for tests: engine, dataset
// registry, pipeline registry over a memory store, and a resident
// biased synthetic dataset.
type world struct {
	engine   *serve.Engine
	datasets *dataset.Registry
	runs     *Registry
	ref      string
}

func newWorld(t *testing.T, quotas func(string) tenant.Quotas) *world {
	t.Helper()
	engine := serve.NewEngine(serve.Config{Workers: 2, QueueSize: 64, JobTimeout: time.Minute, TenantQuotas: quotas})
	t.Cleanup(engine.Close)
	datasets := dataset.NewRegistry(0)
	f, err := synth.Credit(synth.CreditConfig{N: 500, Bias: 1.0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := datasets.Put("credit", f)
	if err != nil {
		t.Fatal(err)
	}
	runs := NewRegistry(engine, datasets, quotas)
	if err := runs.AttachStore(memory.New()); err != nil {
		t.Fatal(err)
	}
	return &world{engine: engine, datasets: datasets, runs: runs, ref: meta.Ref}
}

// wait polls the registry until run id is terminal.
func (w *world) wait(t *testing.T, id string) *Record {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		rec, ok := w.runs.Get("", id)
		if !ok {
			t.Fatalf("run %s vanished", id)
		}
		if terminal(rec.Status) {
			return rec
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s did not finish", id)
	return nil
}

// auditAt decodes the AuditDetail of the stage at index i.
func auditAt(t *testing.T, rec *Record, i int) AuditDetail {
	t.Helper()
	if i >= len(rec.Stages) {
		t.Fatalf("record has %d stages, want index %d (%+v)", len(rec.Stages), i, rec)
	}
	var d AuditDetail
	if err := json.Unmarshal(rec.Stages[i].Detail, &d); err != nil {
		t.Fatalf("decoding stage %d detail: %v", i, err)
	}
	return d
}

func TestSpecValidation(t *testing.T) {
	base := Spec{DatasetRef: "abc"}
	if _, err := base.withDefaults(); err != nil {
		t.Fatalf("minimal spec rejected: %v", err)
	}
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"no dataset", Spec{}, "dataset_ref"},
		{"bad mitigation", Spec{DatasetRef: "abc", Mitigation: "wish"}, "mitigation"},
		{"negative epsilon", Spec{DatasetRef: "abc", Epsilon: -1}, "epsilon"},
		{"unknown stage", Spec{DatasetRef: "abc", Stages: []string{"train", "deploy"}}, "unknown stage"},
		{"audit first", Spec{DatasetRef: "abc", Stages: []string{"audit", "train"}}, "before any training"},
	}
	for _, tc := range cases {
		if _, err := tc.spec.withDefaults(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	got, err := Spec{DatasetRef: "abc"}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if got.Mitigation != "reweigh" || got.Epsilon != 1.0 || got.Seed != 1 || len(got.Stages) != len(DefaultStages) {
		t.Fatalf("defaults = %+v", got)
	}
}

// TestFullCurriculumImprovesGrade is the acceptance test: over
// synthetic biased data the default seven-stage curriculum completes,
// the mitigated re-audit grades at least as well as the initial audit
// with strictly better disparate impact, the ldp-privatize stage
// reports its epsilon to the accountant, and the final private+fair
// re-audit grades by the true attribute without losing the mitigation.
func TestFullCurriculumImprovesGrade(t *testing.T) {
	w := newWorld(t, nil)
	rec, err := w.runs.Submit(Spec{DatasetRef: w.ref, Epochs: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != serve.StatusQueued && rec.Status != serve.StatusRunning {
		t.Fatalf("initial record status = %s", rec.Status)
	}
	final := w.wait(t, rec.ID)
	if final.Status != serve.StatusDone {
		t.Fatalf("run = %s (%s), want done; stages %+v", final.Status, final.Error, final.Stages)
	}
	if len(final.Stages) != 7 {
		t.Fatalf("completed stages = %d, want 7", len(final.Stages))
	}
	for i, s := range final.Stages {
		if s.Status != serve.StatusDone || s.Index != i || s.Kind != serve.ClassPipeline {
			t.Fatalf("stage %d = %+v, want done under the pipeline class", i, s)
		}
	}

	initial := auditAt(t, final, 1)   // audit of the unmitigated model
	mitigated := auditAt(t, final, 3) // re-audit after mitigate
	private := auditAt(t, final, 6)   // re-audit after privatize+retrain
	if initial.Overall != policy.Red {
		t.Fatalf("unmitigated audit on bias-1.0 data = %s, want red", initial.Overall)
	}
	if mitigated.Overall < initial.Overall {
		t.Fatalf("mitigated grade %s worse than initial %s", mitigated.Overall, initial.Overall)
	}
	if mitigated.DisparateImpact <= initial.DisparateImpact {
		t.Fatalf("mitigation did not improve disparate impact: %v -> %v",
			initial.DisparateImpact, mitigated.DisparateImpact)
	}
	if initial.EpsSpent != 0 || mitigated.EpsSpent != 0 {
		t.Fatalf("epsilon spent before ldp-privatize: %v / %v", initial.EpsSpent, mitigated.EpsSpent)
	}

	var priv PrivatizeDetail
	if err := json.Unmarshal(final.Stages[4].Detail, &priv); err != nil {
		t.Fatal(err)
	}
	if priv.Epsilon != 1.0 || priv.EpsSpent != 1.0 {
		t.Fatalf("privatize detail = %+v, want epsilon 1.0 spent once", priv)
	}
	if priv.KeepProbability <= 0.5 || priv.KeepProbability >= 1 {
		t.Fatalf("keep probability = %v, want in (0.5, 1)", priv.KeepProbability)
	}
	if priv.FlippedFraction <= 0 || priv.FlippedFraction >= 0.5 {
		t.Fatalf("flipped fraction = %v, want in (0, 0.5)", priv.FlippedFraction)
	}
	if priv.TrueColumn != "group__true" {
		t.Fatalf("true column = %q", priv.TrueColumn)
	}

	if !private.TrueGroups {
		t.Fatal("final re-audit not grouped by the true attribute")
	}
	if private.EpsSpent != 1.0 {
		t.Fatalf("final audit eps_spent = %v, want 1.0", private.EpsSpent)
	}
	if private.Overall < initial.Overall {
		t.Fatalf("private+fair grade %s worse than unmitigated %s", private.Overall, initial.Overall)
	}
}

// TestThresholdMitigationImprovesGrade runs the short fair-classifier
// arc under the threshold mitigation: train, audit, mitigate, re-audit.
func TestThresholdMitigationImprovesGrade(t *testing.T) {
	w := newWorld(t, nil)
	rec, err := w.runs.Submit(Spec{
		DatasetRef: w.ref,
		Epochs:     12,
		Mitigation: "threshold",
		Stages:     []string{StageTrain, StageAudit, StageMitigate, StageReaudit},
	})
	if err != nil {
		t.Fatal(err)
	}
	final := w.wait(t, rec.ID)
	if final.Status != serve.StatusDone {
		t.Fatalf("run = %s (%s)", final.Status, final.Error)
	}
	initial, mitigated := auditAt(t, final, 1), auditAt(t, final, 3)
	if mitigated.Overall < initial.Overall || mitigated.DisparateImpact <= initial.DisparateImpact {
		t.Fatalf("threshold mitigation: %s DI %v -> %s DI %v, want improvement",
			initial.Overall, initial.DisparateImpact, mitigated.Overall, mitigated.DisparateImpact)
	}
	var mit MitigateDetail
	if err := json.Unmarshal(final.Stages[2].Detail, &mit); err != nil {
		t.Fatal(err)
	}
	if mit.Mitigation != "threshold" {
		t.Fatalf("mitigate detail = %+v", mit)
	}
}

// TestRunsAreDeterministic pins the property resume relies on: two runs
// of the same spec over the same dataset produce byte-identical stage
// details.
func TestRunsAreDeterministic(t *testing.T) {
	w := newWorld(t, nil)
	spec := Spec{DatasetRef: w.ref, Epochs: 8, Seed: 11}
	a, err := w.runs.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.runs.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := w.wait(t, a.ID), w.wait(t, b.ID)
	if fa.Status != serve.StatusDone || fb.Status != serve.StatusDone {
		t.Fatalf("runs = %s / %s", fa.Status, fb.Status)
	}
	for i := range fa.Stages {
		if string(fa.Stages[i].Detail) != string(fb.Stages[i].Detail) {
			t.Fatalf("stage %d diverged between identical runs:\n%s\n%s",
				i, fa.Stages[i].Detail, fb.Stages[i].Detail)
		}
	}
}

// TestResumeAtLastCompletedStage is the durability acceptance test at
// the registry level: a record persisted mid-run (as a kill -9 leaves
// it) is resumed by AttachStore at its last completed stage, and the
// resumed run's remaining stages are byte-identical to the
// uninterrupted run's — deterministic replay rebuilt the exact model
// and privatized frame.
func TestResumeAtLastCompletedStage(t *testing.T) {
	w := newWorld(t, nil)
	spec := Spec{DatasetRef: w.ref, Epochs: 8, Seed: 9}
	rec, err := w.runs.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	full := w.wait(t, rec.ID)
	if full.Status != serve.StatusDone {
		t.Fatalf("reference run = %s (%s)", full.Status, full.Error)
	}

	// Re-create the kill point after every prefix length: the store
	// holds the spec plus k completed stages, status still running.
	for k := 1; k < len(full.Stages); k++ {
		st := memory.New()
		cut := *full
		cut.Status = serve.StatusRunning
		cut.Error = ""
		cut.ElapsedMillis = 0
		cut.Stages = full.Stages[:k]
		payload, err := json.Marshal(&cut)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Save("pipelines", cut.ID, payload); err != nil {
			t.Fatal(err)
		}

		resumed := NewRegistry(w.engine, w.datasets, nil)
		if err := resumed.AttachStore(st); err != nil {
			t.Fatalf("k=%d: AttachStore: %v", k, err)
		}
		var got *Record
		deadline := time.Now().Add(time.Minute)
		for time.Now().Before(deadline) {
			r, ok := resumed.Get("", cut.ID)
			if !ok {
				t.Fatalf("k=%d: resumed run vanished", k)
			}
			if terminal(r.Status) {
				got = r
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if got == nil {
			t.Fatalf("k=%d: resumed run never finished", k)
		}
		if got.Status != serve.StatusDone {
			t.Fatalf("k=%d: resumed run = %s (%s)", k, got.Status, got.Error)
		}
		if got.Resumed != 1 {
			t.Fatalf("k=%d: resumed counter = %d, want 1", k, got.Resumed)
		}
		if len(got.Stages) != len(full.Stages) {
			t.Fatalf("k=%d: resumed stages = %d, want %d", k, len(got.Stages), len(full.Stages))
		}
		for i := k; i < len(full.Stages); i++ {
			if string(got.Stages[i].Detail) != string(full.Stages[i].Detail) {
				t.Fatalf("k=%d: stage %d after resume diverged from uninterrupted run:\n%s\n%s",
					k, i, got.Stages[i].Detail, full.Stages[i].Detail)
			}
		}
	}
}

// TestRestoreFinalizesAndFails covers the non-resumable restore arcs:
// all-stages-done records are finalized, records whose dataset is gone
// fail loudly in the record (not the boot), and corrupt records refuse
// the boot.
func TestRestoreFinalizesAndFails(t *testing.T) {
	w := newWorld(t, nil)
	spec, err := Spec{DatasetRef: w.ref}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	spec.Tenant = tenant.Default

	save := func(st *memory.Store, rec *Record) {
		t.Helper()
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Save("pipelines", rec.ID, payload); err != nil {
			t.Fatal(err)
		}
	}

	// All stages persisted but the finish marker never landed.
	st := memory.New()
	done := &Record{ID: "pl-000001", Tenant: tenant.Default, Spec: spec, Status: serve.StatusRunning}
	for i, name := range spec.Stages {
		done.Stages = append(done.Stages, StageRecord{Index: i, Stage: name, Status: serve.StatusDone})
	}
	// Last persisted stage failed before the finish marker could land.
	failed := &Record{ID: "pl-000002", Tenant: tenant.Default, Spec: spec, Status: serve.StatusRunning,
		Stages: []StageRecord{{Index: 0, Stage: StageTrain, Status: serve.StatusFailed, Error: "boom"}}}
	// Dataset evicted between lives.
	gone := *done
	gone.ID = "pl-000003"
	gone.Stages = done.Stages[:2]
	gone.Spec.DatasetRef = "no-such-ref"
	save(st, done)
	save(st, failed)
	save(st, &gone)

	r := NewRegistry(w.engine, w.datasets, nil)
	if err := r.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	if rec, _ := r.Get("", "pl-000001"); rec.Status != serve.StatusDone {
		t.Fatalf("all-done record = %s, want finalized done", rec.Status)
	}
	if rec, _ := r.Get("", "pl-000002"); rec.Status != serve.StatusFailed || rec.Error != "boom" {
		t.Fatalf("failed-stage record = %s (%s), want failed boom", rec.Status, rec.Error)
	}
	if rec, _ := r.Get("", "pl-000003"); rec.Status != serve.StatusFailed ||
		!strings.Contains(rec.Error, "not resident") {
		t.Fatalf("gone-dataset record = %s (%s), want failed not-resident", rec.Status, rec.Error)
	}
	// seq advanced past restored ids: the next submit does not collide.
	rec, err := r.Submit(Spec{DatasetRef: w.ref, Stages: []string{StageTrain}, Epochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rec.ID != "pl-000004" {
		t.Fatalf("post-restore id = %s, want pl-000004", rec.ID)
	}

	// Corrupt record (valid JSON, wrong shape): refuse the boot.
	bad := memory.New()
	if err := bad.Save("pipelines", "pl-000009", []byte(`[1,2,3]`)); err != nil {
		t.Fatal(err)
	}
	if err := NewRegistry(w.engine, w.datasets, nil).AttachStore(bad); err == nil ||
		!strings.Contains(err.Error(), "pl-000009") {
		t.Fatalf("corrupt record restore: %v, want refusal naming the record", err)
	}
	// A record that names itself differently from its store id is also a
	// refusal — silent renames would break resume bookkeeping.
	renamed := memory.New()
	other := &Record{ID: "pl-000001", Tenant: tenant.Default, Spec: spec, Status: serve.StatusDone}
	payload, err := json.Marshal(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := renamed.Save("pipelines", "pl-000002", payload); err != nil {
		t.Fatal(err)
	}
	if err := NewRegistry(w.engine, w.datasets, nil).AttachStore(renamed); err == nil {
		t.Fatal("id-mismatched record accepted")
	}
}

// TestMaxPipelinesQuota checks the tenant quota gate: with
// max_pipelines 1 a second live run is rejected wrapping
// tenant.ErrQuota, and a slot frees once the first run finishes.
func TestMaxPipelinesQuota(t *testing.T) {
	quotas := func(string) tenant.Quotas { return tenant.Quotas{MaxPipelines: 1} }
	engine := serve.NewEngine(serve.Config{Workers: 1, QueueSize: 16, JobTimeout: time.Minute})
	defer engine.Close()
	datasets := dataset.NewRegistry(0)
	f, err := synth.Credit(synth.CreditConfig{N: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := datasets.Put("credit", f)
	if err != nil {
		t.Fatal(err)
	}
	runs := NewRegistry(engine, datasets, quotas)

	// Occupy the single worker so the first run stays live.
	block := make(chan struct{})
	entered := make(chan struct{})
	blocker, err := engine.Submit(serve.JobSpec{Stages: []serve.Stage{{
		Run: func(ctx context.Context) (any, error) { close(entered); <-block; return nil, nil },
	}}})
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	spec := Spec{DatasetRef: meta.Ref, Epochs: 3, Stages: []string{StageTrain}}
	first, err := runs.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runs.Submit(spec); !errors.Is(err, tenant.ErrQuota) {
		t.Fatalf("second live run: %v, want tenant.ErrQuota", err)
	}
	if got := runs.LiveCount(tenant.Default); got != 1 {
		t.Fatalf("live count = %d, want 1", got)
	}

	close(block)
	if _, err := engine.Wait(context.Background(), blocker); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		rec, _ := runs.Get("", first.ID)
		if terminal(rec.Status) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first run never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := runs.Submit(spec); err != nil {
		t.Fatalf("submit after slot freed: %v", err)
	}
}

// TestTenantScoping checks Get/List visibility: tenants see only their
// own runs (foreign ids read as absent), operators see everything, and
// CountsAs slices per tenant.
func TestTenantScoping(t *testing.T) {
	w := newWorld(t, nil)
	fA, err := synth.Credit(synth.CreditConfig{N: 300, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	metaA, err := w.datasets.PutAs("acme", "credit-a", fA)
	if err != nil {
		t.Fatal(err)
	}
	short := []string{StageTrain}
	a, err := w.runs.Submit(Spec{Tenant: "acme", DatasetRef: metaA.Ref, Epochs: 3, Stages: short})
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.runs.Submit(Spec{DatasetRef: w.ref, Epochs: 3, Stages: short})
	if err != nil {
		t.Fatal(err)
	}
	w.wait(t, a.ID)
	w.wait(t, b.ID)

	if _, ok := w.runs.Get("acme", b.ID); ok {
		t.Fatal("tenant acme sees the default tenant's run")
	}
	if _, ok := w.runs.Get("acme", a.ID); !ok {
		t.Fatal("tenant acme cannot see its own run")
	}
	if got := len(w.runs.List("acme")); got != 1 {
		t.Fatalf("acme list = %d runs, want 1", got)
	}
	if got := len(w.runs.List("")); got != 2 {
		t.Fatalf("operator list = %d runs, want 2", got)
	}
	total, live := w.runs.CountsAs("acme")
	if total != 1 || live != 0 {
		t.Fatalf("CountsAs(acme) = %d/%d, want 1 total 0 live", total, live)
	}
	// A tenant cannot run a pipeline over another tenant's dataset.
	if _, err := w.runs.Submit(Spec{Tenant: "acme", DatasetRef: w.ref, Epochs: 3, Stages: short}); err == nil {
		t.Fatal("cross-tenant dataset_ref accepted")
	}
}
