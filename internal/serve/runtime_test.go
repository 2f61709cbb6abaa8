package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/synth"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// TestLegacyCacheKeysBitIdentical is the refactor's bit-identity pin:
// these keys were captured from the pre-refactor engine (single-shot
// audits, no staged runtime) over a fixed synthetic dataset. If the
// staged-job refactor — or any later change — perturbs the cache key
// derivation, previously cached reports silently stop hitting and
// clients re-pay full audits; this test turns that into a loud failure.
func TestLegacyCacheKeysBitIdentical(t *testing.T) {
	golden := []string{
		"f96363d82fb56b22aceb00dcfcd983f11c1b2cf7965924b3c044332684383465",
		"2ff5f11d74cf049cf493d57a22c7bd454f96c0090ed8ff9082135e416efdf5bf",
		"0c8300c555324015076a09fe2f72b608ff3ad9f238f4cd7e0da1fb70a3a6fd30",
	}
	f, err := synth.Credit(synth.CreditConfig{N: 400, Bias: 1.0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []*Request{
		{Dataset: "dataset", Data: f, Policy: DefaultPolicy(), Seed: 1,
			Spec: core.TrainSpec{Target: "approved", Sensitive: "group", Protected: "B", Reference: "A"}},
		{Dataset: "alt", Data: f, Policy: DefaultPolicy(), Seed: 42,
			Spec: core.TrainSpec{Target: "approved", Sensitive: "group", Protected: "B", Reference: "A", TestFraction: 0.25, Mitigation: core.MitigateReweigh, Epochs: 10, Exclude: []string{"income"}}},
		{Dataset: "h", Data: f, DataHash: "deadbeef", Policy: DefaultPolicy(), Seed: 3,
			Spec: core.TrainSpec{Target: "approved", Sensitive: "group", Protected: "B", Reference: "A", Mitigation: core.MitigateThreshold}},
	}
	for i, r := range reqs {
		if got := cacheKey(r); got != golden[i] {
			t.Errorf("cacheKey(req %d) = %s, want golden %s", i, got, golden[i])
		}
	}
	// The admission class is scheduling state, never identity: the same
	// audit admitted under a different class must hit the same entry.
	sys := *reqs[0]
	sys.Class = ClassSystem
	if got := cacheKey(&sys); got != golden[0] {
		t.Errorf("cacheKey with Class=system = %s, want golden %s (class leaked into identity)", got, golden[0])
	}
}

// TestSubmitRunsStagesInOrder drives a three-stage job end to end:
// stages execute strictly in order, OnStage observes every result —
// with its index and detail — before the next stage runs, and OnFinish
// sees the terminal snapshot once.
func TestSubmitRunsStagesInOrder(t *testing.T) {
	e := NewEngine(Config{Workers: 2, QueueSize: 16, CacheSize: -1})
	defer e.Close()

	var mu sync.Mutex
	var observed []string
	var results []StageResult
	var finals []JobStatus
	mkStage := func(name string) Stage {
		return Stage{Name: name, Run: func(ctx context.Context) (any, error) {
			mu.Lock()
			observed = append(observed, "run:"+name)
			mu.Unlock()
			return name + "-detail", nil
		}}
	}
	id, err := e.Submit(JobSpec{
		Name:   "ordered",
		Stages: []Stage{mkStage("one"), mkStage("two"), mkStage("three")},
		OnStage: func(res StageResult) {
			mu.Lock()
			observed = append(observed, "hook:"+res.Stage)
			results = append(results, res)
			mu.Unlock()
		},
		OnFinish: func(final JobStatus) {
			mu.Lock()
			finals = append(finals, final)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := e.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone || final.Dataset != "ordered" {
		t.Fatalf("final = %+v, want done job named ordered", final)
	}
	want := []string{"run:one", "hook:one", "run:two", "hook:two", "run:three", "hook:three"}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(observed) != fmt.Sprint(want) {
		t.Fatalf("stage/hook order = %v, want %v (OnStage must run before the next stage)", observed, want)
	}
	if len(finals) != 1 || finals[0].Status != StatusDone {
		t.Fatalf("OnFinish saw %+v, want exactly one done snapshot", finals)
	}
	for i, res := range results {
		if res.Index != i || res.Status != StatusDone || res.Kind != ClassPipeline {
			t.Fatalf("result %d = %+v, want done pipeline-class at index %d", i, res, i)
		}
		if d, ok := res.Detail.(string); !ok || d != res.Stage+"-detail" {
			t.Fatalf("result %d detail = %v, want %q", i, res.Detail, res.Stage+"-detail")
		}
	}
}

// TestTaskStageFailureStopsRun checks a failing stage fails the whole
// job and no later stage runs.
func TestTaskStageFailureStopsRun(t *testing.T) {
	e := NewEngine(Config{Workers: 1, QueueSize: 16, CacheSize: -1})
	defer e.Close()
	var ranThird bool
	var mu sync.Mutex
	var last StageResult
	id, err := e.Submit(JobSpec{
		Stages: []Stage{
			{Name: "ok", Run: func(ctx context.Context) (any, error) { return nil, nil }},
			{Name: "boom", Run: func(ctx context.Context) (any, error) { return nil, errors.New("stage exploded") }},
			{Name: "never", Run: func(ctx context.Context) (any, error) { ranThird = true; return nil, nil }},
		},
		OnStage: func(res StageResult) { mu.Lock(); last = res; mu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := e.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusFailed || final.Error == "" {
		t.Fatalf("final = %+v, want failed with error", final)
	}
	if ranThird {
		t.Fatal("stage after the failing one ran; failure must stop the job")
	}
	mu.Lock()
	defer mu.Unlock()
	if last.Stage != "boom" || last.Status != StatusFailed || last.Error != "stage exploded" {
		t.Fatalf("failing stage record = %+v", last)
	}
}

// TestSubmitJobSpecValidation covers the rejection paths: no stages, a
// stage without a body, an unknown admission class, an invalid tenant,
// and submit after Close.
func TestSubmitJobSpecValidation(t *testing.T) {
	e := NewEngine(Config{Workers: 1, QueueSize: 4, CacheSize: -1})
	noop := func(ctx context.Context) (any, error) { return nil, nil }
	if _, err := e.Submit(JobSpec{}); err == nil {
		t.Error("empty stage list accepted")
	}
	if _, err := e.Submit(JobSpec{Stages: []Stage{{Name: "x"}}}); err == nil {
		t.Error("stage without Run accepted")
	}
	if _, err := e.Submit(JobSpec{Stages: []Stage{{Kind: "bogus", Run: noop}}}); err == nil {
		t.Error("unknown admission class accepted")
	}
	if _, err := e.Submit(JobSpec{Tenant: "UPPER CASE!", Stages: []Stage{{Run: noop}}}); err == nil {
		t.Error("invalid tenant accepted")
	}
	e.Close()
	if _, err := e.Submit(JobSpec{Stages: []Stage{{Run: noop}}}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close = %v, want ErrClosed", err)
	}
}

// TestSystemClassBypassesTenantBucket is the satellite regression test:
// monitor-plane window audits admitted under ClassSystem must not be
// throttled by the tenant's own rate_per_sec / max_queue quotas — a
// tenant tightening its interactive budget cannot silence its own
// drift scoring. Interactive admissions under the same tenant still
// hit the bucket.
func TestSystemClassBypassesTenantBucket(t *testing.T) {
	clock := newFakeClock()
	quotas := func(string) tenant.Quotas {
		return tenant.Quotas{RatePerSec: 1, Burst: 1, MaxQueue: 1}
	}
	s := newScheduler(100, clock.now, quotas, nil)

	// Interactive: one admit drains the burst, the second rejects.
	if err := s.admit("a", ClassInteractive, &job{}, false); err != nil {
		t.Fatal(err)
	}
	if err := s.admit("a", ClassInteractive, &job{}, false); !errors.Is(err, ErrTenantBusy) {
		t.Fatalf("interactive over budget: %v, want ErrTenantBusy", err)
	}
	// System class: far past both the bucket and MaxQueue, every admit
	// lands.
	for i := 0; i < 20; i++ {
		if err := s.admit("a", ClassSystem, &job{}, false); err != nil {
			t.Fatalf("system-class admit #%d throttled by tenant quotas: %v", i, err)
		}
	}
	// Only the service-wide aggregate bound applies to system work.
	small := newScheduler(2, clock.now, quotas, nil)
	for i := 0; i < 2; i++ {
		if err := small.admit("a", ClassSystem, &job{}, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := small.admit("a", ClassSystem, &job{}, false); !errors.Is(err, ErrBusy) {
		t.Fatalf("system class past aggregate capacity: %v, want ErrBusy", err)
	}
}

// TestReadmitBypassesAdmission pins the once-at-the-front-door rule: a
// staged job re-entering for its next stage consumes no tokens and
// ignores queue bounds (it was already admitted), but still queues —
// depth rises — so it drains in DRR order with everyone else.
func TestReadmitBypassesAdmission(t *testing.T) {
	clock := newFakeClock()
	quotas := func(string) tenant.Quotas {
		return tenant.Quotas{RatePerSec: 1, Burst: 1, MaxQueue: 1}
	}
	s := newScheduler(2, clock.now, quotas, nil)
	if err := s.admit("a", ClassPipeline, &job{}, false); err != nil {
		t.Fatal(err)
	}
	// Bucket empty, MaxQueue reached, aggregate capacity reached: a
	// fresh admission fails every gate; the readmit passes all three.
	if err := s.admit("a", ClassPipeline, &job{}, false); !errors.Is(err, ErrTenantBusy) {
		t.Fatalf("fresh admit: %v, want ErrTenantBusy", err)
	}
	for i := 0; i < 3; i++ {
		if err := s.admit("a", ClassPipeline, &job{}, true); err != nil {
			t.Fatalf("readmit #%d rejected: %v", i, err)
		}
	}
	if got := s.queueDepth(); got != 4 {
		t.Fatalf("queue depth = %d, want 4 (readmits still queue)", got)
	}
}

// TestTaskMetricsCounters checks multi-stage jobs land in the one
// metrics family: the jobs_* totals and the pipeline class count each
// job once, stages_executed and the tenant slice count every stage,
// and each finished job lands in its tenant's latency window.
func TestTaskMetricsCounters(t *testing.T) {
	e := NewEngine(Config{Workers: 1, QueueSize: 16, CacheSize: -1})
	defer e.Close()
	noop := func(ctx context.Context) (any, error) { return nil, nil }
	id, err := e.Submit(JobSpec{Tenant: "acme", Stages: []Stage{
		{Run: noop}, {Run: noop}, {Run: noop},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	fid, err := e.Submit(JobSpec{Tenant: "acme", Stages: []Stage{
		{Run: func(ctx context.Context) (any, error) { return nil, errors.New("nope") }},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Wait(context.Background(), fid); err != nil {
		t.Fatal(err)
	}

	snap := e.MetricsSnapshot()
	if snap.JobsSubmitted != 2 || snap.JobsCompleted != 1 || snap.JobsFailed != 1 {
		t.Fatalf("job counters = %d submitted / %d completed / %d failed, want 2/1/1",
			snap.JobsSubmitted, snap.JobsCompleted, snap.JobsFailed)
	}
	if got, want := snap.Classes[ClassPipeline], (ClassSnapshot{Submitted: 2, Completed: 1, Failed: 1}); got != want {
		t.Fatalf("pipeline class = %+v, want %+v", got, want)
	}
	if snap.StagesExecuted != 4 {
		t.Fatalf("stages_executed = %d, want 4", snap.StagesExecuted)
	}
	ts := snap.Tenants["acme"]
	if ts.Stages != 4 || ts.Executed != 2 {
		t.Fatalf("tenant slice = %+v, want 4 stages / 2 finished jobs", ts)
	}
	if ts.LatencySamples != 2 || ts.P99Millis < ts.P50Millis {
		t.Fatalf("tenant latency slice = %+v, want 2 samples with p99 >= p50", ts)
	}
}

// TestJobMetricsByClass pins the single metrics family over a mixed
// load: an interactive audit, its cache hit, a system-monitor audit, a
// three-stage pipeline-class job, a failing job, and submissions cut
// off by Close. Each job counts once in the jobs_* totals and once
// under its first stage's class; only executed stages count in
// stages_executed; ErrClosed is shutdown, never an admission rejection.
func TestJobMetricsByClass(t *testing.T) {
	e := NewEngine(Config{Workers: 1, QueueSize: 16, CacheSize: 8})
	defer e.Close()
	e.runAudit = func(ctx context.Context, req *Request) (*core.FACTReport, error) {
		return &core.FACTReport{Pipeline: req.Dataset}, nil
	}
	noop := func(ctx context.Context) (any, error) { return nil, nil }
	wait := func(id string, err error) JobStatus {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		js, err := e.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}

	wait(submitAudit(e, stubRequest(1)))
	if js := wait(submitAudit(e, stubRequest(1))); !js.CacheHit {
		t.Fatalf("repeat audit = %+v, want a cache hit", js)
	}
	sys := stubRequest(2)
	sys.Tenant, sys.Class = "acme", ClassSystem
	wait(submitAudit(e, sys))
	wait(e.Submit(JobSpec{Tenant: "acme", Stages: []Stage{{Run: noop}, {Run: noop}, {Run: noop}}}))
	failing := JobSpec{Tenant: "acme", Stages: []Stage{{Run: func(ctx context.Context) (any, error) {
		return nil, errors.New("nope")
	}}}}
	if js := wait(e.Submit(failing)); js.Status != StatusFailed {
		t.Fatalf("failing job = %+v, want failed", js)
	}

	// Close racing a submission: the engine's gate is still open when
	// the scheduler refuses the admit. The attempt counts as submitted,
	// never as rejected.
	e.sched.close()
	if _, err := e.Submit(JobSpec{Stages: []Stage{{Run: noop}}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit racing close = %v, want ErrClosed", err)
	}
	// After Close the gate refuses before anything is counted.
	e.Close()
	if _, err := submitAudit(e, stubRequest(3)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}

	snap := e.MetricsSnapshot()
	wantClasses := map[string]ClassSnapshot{
		ClassInteractive: {Submitted: 2, Completed: 2},
		ClassSystem:      {Submitted: 1, Completed: 1},
		ClassPipeline:    {Submitted: 3, Completed: 1, Failed: 1},
	}
	if fmt.Sprint(snap.Classes) != fmt.Sprint(wantClasses) {
		t.Fatalf("classes = %+v, want %+v", snap.Classes, wantClasses)
	}
	if snap.JobsSubmitted != 6 || snap.JobsRejected != 0 || snap.JobsCompleted != 4 || snap.JobsFailed != 1 {
		t.Fatalf("jobs submitted/rejected/completed/failed = %d/%d/%d/%d, want 6/0/4/1",
			snap.JobsSubmitted, snap.JobsRejected, snap.JobsCompleted, snap.JobsFailed)
	}
	if snap.CacheHits != 1 || snap.CacheMisses != 2 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/2", snap.CacheHits, snap.CacheMisses)
	}
	if snap.StagesExecuted != 6 {
		t.Fatalf("stages_executed = %d, want 6 (the cache hit runs nothing)", snap.StagesExecuted)
	}
	if snap.LatencySamples != 5 || snap.ExecLatencySamples != 4 {
		t.Fatalf("latency samples = %d combined / %d exec, want 5/4", snap.LatencySamples, snap.ExecLatencySamples)
	}
	for _, want := range []struct {
		ten                                     string
		submitted, executed, stages, latSamples uint64
	}{{tenant.Default, 3, 2, 1, 2}, {"acme", 3, 3, 5, 3}} {
		ts := snap.Tenants[want.ten]
		if ts.Submitted != want.submitted || ts.Executed != want.executed || ts.Rejected != 0 ||
			ts.Stages != want.stages || uint64(ts.LatencySamples) != want.latSamples {
			t.Fatalf("tenant %s slice = %+v, want submitted %d executed %d stages %d samples %d, none rejected",
				want.ten, ts, want.submitted, want.executed, want.stages, want.latSamples)
		}
	}
}

// TestTenantLatencyQuantiles is the satellite pin for the per-tenant
// p50/p99 gauges: each tenant's quantiles reflect only its own finished
// work.
func TestTenantLatencyQuantiles(t *testing.T) {
	m := newMetrics(1)
	for i := 0; i < 10; i++ {
		m.finished("fast", ClassInteractive, true, false, 10*time.Millisecond)
		m.finished("slow", ClassInteractive, true, false, time.Second)
	}
	snap := m.Snapshot()
	fast, slow := snap.Tenants["fast"], snap.Tenants["slow"]
	if fast.LatencySamples != 10 || slow.LatencySamples != 10 {
		t.Fatalf("samples = %d/%d, want 10/10", fast.LatencySamples, slow.LatencySamples)
	}
	if fast.P50Millis <= 0 || fast.P99Millis >= 100 {
		t.Fatalf("fast tenant quantiles = p50 %v p99 %v, want ~10ms", fast.P50Millis, fast.P99Millis)
	}
	if slow.P50Millis < 900 {
		t.Fatalf("slow tenant p50 = %v, want ~1000ms (cross-tenant bleed?)", slow.P50Millis)
	}
}

// TestTaskInterruptedOnClose checks the shutdown story the pipeline
// plane's resume depends on: closing the engine between stages
// finalizes the job as failed with Interrupted set, after every
// completed stage reached OnStage.
func TestTaskInterruptedOnClose(t *testing.T) {
	e := NewEngine(Config{Workers: 1, QueueSize: 16, CacheSize: -1})
	entered := make(chan struct{})
	proceed := make(chan struct{})
	var mu sync.Mutex
	var persisted []string
	id, err := e.Submit(JobSpec{
		Stages: []Stage{
			{Name: "first", Run: func(ctx context.Context) (any, error) {
				close(entered)
				<-proceed
				return nil, nil
			}},
			{Name: "second", Run: func(ctx context.Context) (any, error) { return nil, nil }},
		},
		OnStage: func(res StageResult) {
			mu.Lock()
			persisted = append(persisted, res.Stage)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	go func() {
		// Close blocks until workers drain; release the stage once the
		// scheduler has stopped admitting so the readmit must fail.
		time.Sleep(10 * time.Millisecond)
		close(proceed)
	}()
	e.Close()
	final, err := e.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusFailed || !final.Interrupted {
		t.Fatalf("final = %+v, want failed + interrupted", final)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(persisted) != 1 || persisted[0] != "first" {
		t.Fatalf("OnStage saw %v, want exactly the completed stage [first]", persisted)
	}
}

// TestCachePartitionChurnerEvictsOwnEntries is the satellite fairness
// test: a tenant churning unique audits must evict its own older
// entries once it holds the largest byte share — the quiet tenant's
// reports stay resident.
func TestCachePartitionChurnerEvictsOwnEntries(t *testing.T) {
	c := NewReportCache(4)
	rep := func(name string) *core.FACTReport { return &core.FACTReport{Pipeline: name} }
	c.PutAs("quiet", "q1", rep("q1"))
	c.PutAs("quiet", "q2", rep("q2"))
	for i := 0; i < 50; i++ {
		c.PutAs("churner", fmt.Sprintf("c%d", i), rep("c"))
	}
	if _, ok := c.Get("q1"); !ok {
		t.Fatal("churner evicted quiet tenant's q1")
	}
	if _, ok := c.Get("q2"); !ok {
		t.Fatal("churner evicted quiet tenant's q2")
	}
	if got := c.Len(); got != 4 {
		t.Fatalf("cache len = %d, want capacity 4", got)
	}
	bytes := c.TenantBytes()
	if bytes["quiet"] <= 0 || bytes["churner"] <= 0 {
		t.Fatalf("TenantBytes = %v, want both tenants resident", bytes)
	}
}

// TestCacheCrossTenantHitsPreserved pins that partitioning occupancy
// did not partition lookups: a report inserted by one tenant hits for
// every tenant (audits are pure functions of their key).
func TestCacheCrossTenantHitsPreserved(t *testing.T) {
	c := NewReportCache(4)
	c.PutAs("a", "shared", &core.FACTReport{Pipeline: "shared"})
	got, ok := c.Get("shared")
	if !ok || got.Pipeline != "shared" {
		t.Fatal("global lookup missed an entry another tenant inserted")
	}
	// Re-inserting the same key as another tenant keeps one entry and
	// the original owner's accounting.
	c.PutAs("b", "shared", &core.FACTReport{Pipeline: "shared"})
	if c.Len() != 1 {
		t.Fatalf("len = %d after duplicate-key PutAs, want 1", c.Len())
	}
	bytes := c.TenantBytes()
	if bytes["b"] != 0 {
		t.Fatalf("TenantBytes = %v; duplicate key must not charge the second tenant", bytes)
	}
}

// TestCacheTenantBytesConverge checks the accounting the eviction
// policy steers by: under sustained mixed load the per-tenant byte
// shares stay within one report of each other.
func TestCacheTenantBytesConverge(t *testing.T) {
	c := NewReportCache(8)
	for i := 0; i < 200; i++ {
		ten := fmt.Sprintf("t%d", i%2)
		c.PutAs(ten, fmt.Sprintf("%s-%d", ten, i), &core.FACTReport{Pipeline: ten})
	}
	bytes := c.TenantBytes()
	if len(bytes) != 2 {
		t.Fatalf("TenantBytes = %v, want both tenants", bytes)
	}
	per := reportSize(&core.FACTReport{Pipeline: "t0"})
	diff := bytes["t0"] - bytes["t1"]
	if diff < 0 {
		diff = -diff
	}
	if diff > per {
		t.Fatalf("shares diverged: %v (one report ≈ %d bytes)", bytes, per)
	}
}
