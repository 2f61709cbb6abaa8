package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
	meta, err := datasets.PutAs(tenant.Default, "credit", f)
	if err != nil {
		t.Fatal(err)
	}
	runs := NewRegistry(engine, datasets, quotas)
	if err := runs.AttachStore(memory.New()); err != nil {
		t.Fatal(err)
	}
	return &world{engine: engine, datasets: datasets, runs: runs, ref: meta.Ref}
}

// wait polls the registry until the submitted run is terminal.
func (w *world) wait(t *testing.T, submitted *Record) *Record {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		rec, ok := w.runs.Get(submitted.Tenant, submitted.ID)
		if !ok {
			t.Fatalf("run %s vanished", submitted.ID)
		}
		if terminal(rec.Status) {
			return rec
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s did not finish", submitted.ID)
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
		{"bad mitigation", Spec{DatasetRef: "abc", TrainWire: serve.TrainWire{Mitigation: "wish"}}, "mitigation"},
		{"negative epsilon", Spec{DatasetRef: "abc", Epsilon: -1}, "epsilon"},
		{"invalid policy", Spec{DatasetRef: "abc", TrainWire: serve.TrainWire{Policy: &policy.FACTPolicy{MinDisparateImpact: 2}}}, "MinDisparateImpact"},
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
	rec, err := w.runs.Submit(tenant.Default, Spec{DatasetRef: w.ref, TrainWire: serve.TrainWire{Epochs: 12}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != serve.StatusQueued && rec.Status != serve.StatusRunning {
		t.Fatalf("initial record status = %s", rec.Status)
	}
	final := w.wait(t, rec)
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
	rec, err := w.runs.Submit(tenant.Default, Spec{
		DatasetRef: w.ref,
		TrainWire:  serve.TrainWire{Epochs: 12, Mitigation: "threshold"},
		Stages:     []string{StageTrain, StageAudit, StageMitigate, StageReaudit},
	})
	if err != nil {
		t.Fatal(err)
	}
	final := w.wait(t, rec)
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
	spec := Spec{DatasetRef: w.ref, TrainWire: serve.TrainWire{Epochs: 8}, Seed: 11}
	a, err := w.runs.Submit(tenant.Default, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.runs.Submit(tenant.Default, spec)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := w.wait(t, a), w.wait(t, b)
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
	spec := Spec{DatasetRef: w.ref, TrainWire: serve.TrainWire{Epochs: 8}, Seed: 9}
	rec, err := w.runs.Submit(tenant.Default, spec)
	if err != nil {
		t.Fatal(err)
	}
	full := w.wait(t, rec)
	if full.Status != serve.StatusDone {
		t.Fatalf("reference run = %s (%s)", full.Status, full.Error)
	}

	// Re-create the kill point after every prefix length: the store
	// holds the spec plus k completed stages, status still running.
	for k := 1; k < len(full.Stages); k++ {
		cut := *full
		cut.Status = serve.StatusRunning
		cut.Error = ""
		cut.ElapsedMillis = 0
		cut.Stages = full.Stages[:k]
		payload, err := json.Marshal(&cut)
		if err != nil {
			t.Fatal(err)
		}
		resumeMatches(t, w, fmt.Sprintf("k=%d", k), payload, full, k)
	}
}

// resumeMatches restores the persisted run record payload, cut after k
// completed stages of the uninterrupted run full, into a fresh
// registry and requires the resumed run to finish with every later
// stage byte-identical to full's.
func resumeMatches(t *testing.T, w *world, label string, payload []byte, full *Record, k int) {
	t.Helper()
	st := memory.New()
	if err := st.Save("pipelines", full.ID, payload); err != nil {
		t.Fatal(err)
	}
	resumed := NewRegistry(w.engine, w.datasets, nil)
	if err := resumed.AttachStore(st); err != nil {
		t.Fatalf("%s: AttachStore: %v", label, err)
	}
	var got *Record
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		r, ok := resumed.Get(tenant.Default, full.ID)
		if !ok {
			t.Fatalf("%s: resumed run vanished", label)
		}
		if terminal(r.Status) {
			got = r
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got == nil {
		t.Fatalf("%s: resumed run never finished", label)
	}
	if got.Status != serve.StatusDone {
		t.Fatalf("%s: resumed run = %s (%s)", label, got.Status, got.Error)
	}
	if got.Resumed != 1 {
		t.Fatalf("%s: resumed counter = %d, want 1", label, got.Resumed)
	}
	if len(got.Stages) != len(full.Stages) {
		t.Fatalf("%s: resumed stages = %d, want %d", label, len(got.Stages), len(full.Stages))
	}
	for i := k; i < len(full.Stages); i++ {
		if string(got.Stages[i].Detail) != string(full.Stages[i].Detail) {
			t.Fatalf("%s: stage %d after resume diverged from uninterrupted run:\n%s\n%s",
				label, i, got.Stages[i].Detail, full.Stages[i].Detail)
		}
	}
}

// TestResumeIgnoresRemovedShardsField: a run record persisted while
// the spec still carried a shard count ("shards" inside its "spec"
// object) restores and resumes byte-identically.
func TestResumeIgnoresRemovedShardsField(t *testing.T) {
	w := newWorld(t, nil)
	rec, err := w.runs.Submit(tenant.Default, Spec{DatasetRef: w.ref, TrainWire: serve.TrainWire{Epochs: 8}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	full := w.wait(t, rec)
	if full.Status != serve.StatusDone {
		t.Fatalf("reference run = %s (%s)", full.Status, full.Error)
	}
	cut := *full
	cut.Status = serve.StatusRunning
	cut.Error = ""
	cut.ElapsedMillis = 0
	cut.Stages = full.Stages[:2]
	payload, err := json.Marshal(&cut)
	if err != nil {
		t.Fatal(err)
	}
	legacy := strings.Replace(string(payload), `"spec":{`, `"spec":{"shards":4,`, 1)
	if legacy == string(payload) {
		t.Fatalf("record has no spec object: %s", payload)
	}
	resumeMatches(t, w, "legacy spec", []byte(legacy), full, 2)
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
	if rec, _ := r.Get(tenant.Default, "pl-000001"); rec.Status != serve.StatusDone {
		t.Fatalf("all-done record = %s, want finalized done", rec.Status)
	}
	if rec, _ := r.Get(tenant.Default, "pl-000002"); rec.Status != serve.StatusFailed || rec.Error != "boom" {
		t.Fatalf("failed-stage record = %s (%s), want failed boom", rec.Status, rec.Error)
	}
	if rec, _ := r.Get(tenant.Default, "pl-000003"); rec.Status != serve.StatusFailed ||
		!strings.Contains(rec.Error, "not resident") {
		t.Fatalf("gone-dataset record = %s (%s), want failed not-resident", rec.Status, rec.Error)
	}
	// seq advanced past restored ids: the next submit does not collide.
	rec, err := r.Submit(tenant.Default, Spec{DatasetRef: w.ref, Stages: []string{StageTrain}, TrainWire: serve.TrainWire{Epochs: 3}})
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
	meta, err := datasets.PutAs(tenant.Default, "credit", f)
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

	spec := Spec{DatasetRef: meta.Ref, TrainWire: serve.TrainWire{Epochs: 3}, Stages: []string{StageTrain}}
	first, err := runs.Submit(tenant.Default, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runs.Submit(tenant.Default, spec); !errors.Is(err, tenant.ErrQuota) {
		t.Fatalf("second live run: %v, want tenant.ErrQuota", err)
	}
	if _, live := runs.CountsAs(tenant.Default); live != 1 {
		t.Fatalf("live count = %d, want 1", live)
	}

	close(block)
	if _, err := engine.Wait(context.Background(), blocker); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		rec, _ := runs.Get(tenant.Default, first.ID)
		if terminal(rec.Status) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first run never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := runs.Submit(tenant.Default, spec); err != nil {
		t.Fatalf("submit after slot freed: %v", err)
	}
}

// TestTenantScoping checks Get/List visibility: every tenant, the
// default one included, sees only its own runs (foreign ids read as
// absent), and CountsAs slices per tenant.
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
	a, err := w.runs.Submit("acme", Spec{DatasetRef: metaA.Ref, TrainWire: serve.TrainWire{Epochs: 3}, Stages: short})
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.runs.Submit(tenant.Default, Spec{DatasetRef: w.ref, TrainWire: serve.TrainWire{Epochs: 3}, Stages: short})
	if err != nil {
		t.Fatal(err)
	}
	w.wait(t, a)
	w.wait(t, b)

	if _, ok := w.runs.Get("acme", b.ID); ok {
		t.Fatal("tenant acme sees the default tenant's run")
	}
	if _, ok := w.runs.Get("acme", a.ID); !ok {
		t.Fatal("tenant acme cannot see its own run")
	}
	if got := len(w.runs.List("acme")); got != 1 {
		t.Fatalf("acme list = %d runs, want 1", got)
	}
	if got := w.runs.List(tenant.Default); len(got) != 1 || got[0].ID != b.ID {
		t.Fatalf("default list = %+v, want just %s", got, b.ID)
	}
	total, live := w.runs.CountsAs("acme")
	if total != 1 || live != 0 {
		t.Fatalf("CountsAs(acme) = %d/%d, want 1 total 0 live", total, live)
	}
	// A tenant cannot run a pipeline over another tenant's dataset.
	if _, err := w.runs.Submit("acme", Spec{DatasetRef: w.ref, TrainWire: serve.TrainWire{Epochs: 3}, Stages: short}); err == nil {
		t.Fatal("cross-tenant dataset_ref accepted")
	}
}

// TestLiveCountMatchesQuota checks that the max_pipelines gate and
// CountsAs see the same live runs across a submit, its finish, a
// launch the engine rejects, an engine shutdown that interrupts a run
// (its record stays running, to be resumed), and the resume on the
// next boot.
func TestLiveCountMatchesQuota(t *testing.T) {
	quotas := func(string) tenant.Quotas { return tenant.Quotas{MaxPipelines: 1} }
	datasets := dataset.NewRegistry(0)
	f, err := synth.Credit(synth.CreditConfig{N: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := datasets.PutAs(tenant.Default, "credit", f)
	if err != nil {
		t.Fatal(err)
	}
	st := memory.New()
	short := Spec{DatasetRef: meta.Ref, TrainWire: serve.TrainWire{Epochs: 3}, Stages: []string{StageTrain}}
	long := short
	long.Stages = []string{StageTrain, StageAudit, StageReaudit}

	// gate occupies one worker (or queue slot) of e until its channel
	// closes; entered, when non-nil, closes once it runs.
	gate := func(e *serve.Engine, release, entered chan struct{}) {
		t.Helper()
		if _, err := e.Submit(serve.JobSpec{Stages: []serve.Stage{{
			Run: func(ctx context.Context) (any, error) {
				if entered != nil {
					close(entered)
				}
				<-release
				return nil, nil
			},
		}}}); err != nil {
			t.Fatal(err)
		}
	}
	running := func(e *serve.Engine) chan struct{} {
		t.Helper()
		release, entered := make(chan struct{}), make(chan struct{})
		gate(e, release, entered)
		<-entered
		return release
	}
	wait := func(runs *Registry, id string, until func(*Record) bool) *Record {
		t.Helper()
		deadline := time.Now().Add(time.Minute)
		for {
			rec, ok := runs.Get(tenant.Default, id)
			if ok && until(rec) {
				return rec
			}
			if time.Now().After(deadline) {
				t.Fatalf("run %s: condition not reached (%+v)", id, rec)
			}
			time.Sleep(time.Millisecond)
		}
	}
	finished := func(rec *Record) bool { return terminal(rec.Status) }
	// agree checks CountsAs; at the quota, a submission must be refused
	// by the gate, not reach the engine.
	agree := func(runs *Registry, step string, want int) {
		t.Helper()
		if _, live := runs.CountsAs(tenant.Default); live != want {
			t.Fatalf("%s: CountsAs live = %d, want %d", step, live, want)
		}
		if want > 0 {
			if _, err := runs.Submit(tenant.Default, short); !errors.Is(err, tenant.ErrQuota) {
				t.Fatalf("%s: submit at the quota = %v, want tenant.ErrQuota", step, err)
			}
		}
	}

	engine := serve.NewEngine(serve.Config{Workers: 1, QueueSize: 3, JobTimeout: time.Minute})
	runs := NewRegistry(engine, datasets, quotas)
	if err := runs.AttachStore(st); err != nil {
		t.Fatal(err)
	}

	// Submit, then finish.
	release := running(engine)
	a, err := runs.Submit(tenant.Default, short)
	if err != nil {
		t.Fatal(err)
	}
	agree(runs, "queued", 1)
	close(release)
	wait(runs, a.ID, finished)
	agree(runs, "finished", 0)

	// A launch the engine rejects (its queue is full) leaves no live run.
	release, full := running(engine), make(chan struct{})
	for i := 0; i < 3; i++ {
		gate(engine, full, nil)
	}
	if _, err := runs.Submit(tenant.Default, short); !errors.Is(err, serve.ErrBusy) {
		t.Fatalf("submit into a full queue = %v, want serve.ErrBusy", err)
	}
	agree(runs, "launch rejected", 0)
	close(release)
	close(full)
	for engine.QueueDepth() > 0 {
		time.Sleep(time.Millisecond)
	}

	// Interrupt a run between stages: its second stage waits behind a
	// gate while the engine closes, and its third cannot be admitted.
	release = running(engine)
	b, err := runs.Submit(tenant.Default, long)
	if err != nil {
		t.Fatal(err)
	}
	behind := make(chan struct{})
	gate(engine, behind, nil)
	close(release)
	wait(runs, b.ID, func(rec *Record) bool { return len(rec.Stages) >= 1 })
	closed := make(chan struct{})
	go func() { engine.Close(); close(closed) }()
	noop := serve.JobSpec{Stages: []serve.Stage{{Run: func(context.Context) (any, error) { return nil, nil }}}}
	for _, err := engine.Submit(noop); !errors.Is(err, serve.ErrClosed); _, err = engine.Submit(noop) {
		time.Sleep(time.Millisecond)
	}
	close(behind)
	<-closed
	if rec, _ := runs.Get(tenant.Default, b.ID); rec.Status != serve.StatusRunning || len(rec.Stages) == len(long.Stages) {
		t.Fatalf("interrupted run = %s with %d stages, want running and unfinished", rec.Status, len(rec.Stages))
	}
	agree(runs, "interrupted", 1)

	// The next boot resumes the run; it stays live until it finishes.
	engine2 := serve.NewEngine(serve.Config{Workers: 1, QueueSize: 3, JobTimeout: time.Minute})
	t.Cleanup(engine2.Close)
	release = running(engine2)
	resumed := NewRegistry(engine2, datasets, quotas)
	if err := resumed.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	agree(resumed, "resumed", 1)
	close(release)
	if rec := wait(resumed, b.ID, finished); rec.Status != serve.StatusDone {
		t.Fatalf("resumed run = %s (%s)", rec.Status, rec.Error)
	}
	agree(resumed, "resumed run finished", 0)
	if _, err := resumed.Submit(tenant.Default, short); err != nil {
		t.Fatalf("submit after the resumed run finished: %v", err)
	}
}
