package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/policy"
	"github.com/responsible-data-science/rds/internal/synth"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// testRequest returns a small but trainable audit request; vary seed to
// defeat the cache.
func testRequest(t testing.TB, seed uint64) *Request {
	t.Helper()
	data, err := synth.Credit(synth.CreditConfig{N: 400, Bias: 1.0, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return &Request{
		Dataset: fmt.Sprintf("credit-%d", seed),
		Data:    data,
		Policy:  DefaultPolicy(),
		Spec: core.TrainSpec{
			Target: "approved", Sensitive: "group",
			Protected: "B", Reference: "A",
			Epochs: 5,
		},
		Seed: seed,
	}
}

// stubRequest is a minimal request for engines whose runAudit is stubbed
// out (no real pipeline runs).
func stubRequest(seed uint64) *Request {
	return &Request{
		Dataset: fmt.Sprintf("stub-%d", seed),
		Data:    frame.MustNew(frame.NewFloat64("x", []float64{1, 2, 3})),
		Seed:    seed,
	}
}

// submitAudit submits req as its one-stage audit job, the way the HTTP
// layer and the monitor plane do.
func submitAudit(e *Engine, req *Request) (string, error) {
	spec, err := e.AuditJob(req)
	if err != nil {
		return "", err
	}
	return e.Submit(spec)
}

func TestEngineAuditRoundTrip(t *testing.T) {
	e := NewEngine(Config{Workers: 2})
	defer e.Close()

	id, err := submitAudit(e, testRequest(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	js, err := e.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if js.Status != StatusDone {
		t.Fatalf("status = %s (error %q), want done", js.Status, js.Error)
	}
	if js.Report == nil || js.Report.Pipeline != "credit-1" {
		t.Fatalf("report missing or mislabeled: %+v", js.Report)
	}
	if js.Report.Overall != policy.Red {
		t.Errorf("bias 1.0 against the four-fifths rule should grade RED, got %s", js.Report.Overall)
	}
	if len(js.Report.Findings) == 0 {
		t.Error("report has no findings")
	}
}

func TestEngineConcurrencyLimit(t *testing.T) {
	const workers = 3
	e := NewEngine(Config{Workers: workers, QueueSize: 64, CacheSize: -1})
	var running, peak atomic.Int64
	e.runAudit = func(ctx context.Context, req *Request) (*core.FACTReport, error) {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		running.Add(-1)
		return &core.FACTReport{Pipeline: req.Dataset}, nil
	}

	var ids []string
	for i := 0; i < 12; i++ {
		id, err := submitAudit(e, stubRequest(uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if js, err := e.Wait(context.Background(), id); err != nil || js.Status != StatusDone {
			t.Fatalf("job %s: status %v err %v", id, js.Status, err)
		}
	}
	e.Close()
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent jobs, pool capped at %d", p, workers)
	}
	if p := peak.Load(); p < 2 {
		t.Errorf("observed only %d concurrent jobs; pool should overlap work", p)
	}
}

func TestEngineQueueBackpressure(t *testing.T) {
	e := NewEngine(Config{Workers: 1, QueueSize: 2, CacheSize: -1})
	defer e.Close()
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	e.runAudit = func(ctx context.Context, req *Request) (*core.FACTReport, error) {
		<-release
		return &core.FACTReport{Pipeline: req.Dataset}, nil
	}

	// Fill the single worker plus the 2 queue slots; submissions beyond
	// that must be rejected with ErrBusy, not buffered.
	var accepted int
	var sawBusy bool
	for i := 0; i < 20; i++ {
		_, err := submitAudit(e, stubRequest(uint64(i+1)))
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrBusy):
			// The rejection must carry a usable Retry-After hint.
			if secs, ok := RetryAfter(err); !ok || secs < 1 {
				t.Fatalf("ErrBusy without Retry-After hint: %v", err)
			}
			sawBusy = true
		default:
			t.Fatal(err)
		}
		if sawBusy {
			break
		}
	}
	if !sawBusy {
		t.Fatal("queue never rejected with ErrBusy")
	}
	// 2 queued, plus 1 running if the worker already dequeued the first
	// job; both interleavings are legal.
	if accepted < 2 || accepted > 3 {
		t.Errorf("accepted %d jobs before ErrBusy, want 2 or 3", accepted)
	}
	if got := e.MetricsSnapshot().JobsRejected; got == 0 {
		t.Error("rejected submissions not counted in metrics")
	}
	once.Do(func() { close(release) })
}

func TestEngineJobTimeout(t *testing.T) {
	e := NewEngine(Config{Workers: 1, JobTimeout: 30 * time.Millisecond, CacheSize: -1})
	defer e.Close()
	e.runAudit = func(ctx context.Context, req *Request) (*core.FACTReport, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return &core.FACTReport{}, nil
		}
	}
	id, err := submitAudit(e, stubRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	js, err := e.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if js.Status != StatusFailed {
		t.Fatalf("status = %s, want failed (timeout)", js.Status)
	}
	if js.Error == "" {
		t.Error("timed-out job should carry an error")
	}
	if got := e.MetricsSnapshot().JobsFailed; got != 1 {
		t.Errorf("JobsFailed = %d, want 1", got)
	}
}

func TestEngineCacheHitOnIdenticalRequest(t *testing.T) {
	e := NewEngine(Config{Workers: 2, CacheSize: 8})
	defer e.Close()
	var runs atomic.Int64
	e.runAudit = func(ctx context.Context, req *Request) (*core.FACTReport, error) {
		runs.Add(1)
		return &core.FACTReport{Pipeline: req.Dataset}, nil
	}

	first, err := submitAudit(e, stubRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Wait(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	second, err := submitAudit(e, stubRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	js, err := e.Wait(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	if !js.CacheHit {
		t.Error("identical request should be a cache hit")
	}
	if js.Report == nil {
		t.Error("cache hit must still carry the report")
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("pipeline ran %d times, want 1", got)
	}

	// A different seed is a different cache key.
	third, err := submitAudit(e, stubRequest(8))
	if err != nil {
		t.Fatal(err)
	}
	if js, _ := e.Wait(context.Background(), third); js.CacheHit {
		t.Error("different request must not be a cache hit")
	}
	snap := e.MetricsSnapshot()
	if snap.CacheHits != 1 || snap.CacheMisses != 2 {
		t.Errorf("cache hits/misses = %d/%d, want 1/2", snap.CacheHits, snap.CacheMisses)
	}
}

func TestEngineCacheKeySensitivity(t *testing.T) {
	base := testRequest(t, 1)
	k1 := cacheKey(base)

	diffPolicy := testRequest(t, 1)
	diffPolicy.Policy.MinDisparateImpact = 0.9
	if cacheKey(diffPolicy) == k1 {
		t.Error("policy change must change the cache key")
	}

	diffSpec := testRequest(t, 1)
	diffSpec.Spec.Mitigation = core.MitigateReweigh
	if cacheKey(diffSpec) == k1 {
		t.Error("spec change must change the cache key")
	}

	diffData := testRequest(t, 1)
	diffData.Data = frame.MustNew(frame.NewFloat64("x", []float64{1}))
	if cacheKey(diffData) == k1 {
		t.Error("data change must change the cache key")
	}

	same := testRequest(t, 1)
	if cacheKey(same) != k1 {
		t.Error("identical request must produce an identical cache key")
	}
}

func TestReportCacheLRUEviction(t *testing.T) {
	c := NewReportCache(2)
	a, b, d := &core.FACTReport{Pipeline: "a"}, &core.FACTReport{Pipeline: "b"}, &core.FACTReport{Pipeline: "d"}
	c.PutAs(tenant.Default, "a", a)
	c.PutAs(tenant.Default, "b", b)
	if _, ok := c.Get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a should be cached")
	}
	c.PutAs(tenant.Default, "d", d) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted as least recently used")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should survive eviction after refresh")
	}
	if _, ok := c.Get("d"); !ok {
		t.Error("d should be cached")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestSubmitValidation(t *testing.T) {
	e := NewEngine(Config{Workers: 1})
	defer e.Close()
	if _, err := submitAudit(e, nil); err == nil {
		t.Error("nil request must be rejected")
	}
	if _, err := submitAudit(e, &Request{}); err == nil {
		t.Error("empty dataset must be rejected")
	}
	bad := testRequest(t, 1)
	bad.Policy.MinDisparateImpact = 2
	if _, err := submitAudit(e, bad); err == nil {
		t.Error("invalid policy must be rejected")
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	e := NewEngine(Config{Workers: 1})
	e.Close()
	if _, err := submitAudit(e, testRequest(t, 1)); err != ErrClosed {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestMetricsQuantilesSmallSample(t *testing.T) {
	m := newMetrics(1)
	m.finished("default", ClassInteractive, true, false, 1*time.Millisecond)
	m.finished("default", ClassInteractive, true, false, 100*time.Millisecond)
	s := m.Snapshot()
	if s.P50Millis != 1 {
		t.Errorf("p50 = %v, want 1 (lower median of 2 samples)", s.P50Millis)
	}
	if s.P99Millis != 100 {
		t.Errorf("p99 = %v, want 100 (max of a small sample, not min)", s.P99Millis)
	}
}

func TestSpecHashExcludeFraming(t *testing.T) {
	a := testRequest(t, 1)
	a.Spec.Exclude = []string{"a b"}
	b := testRequest(t, 1)
	b.Spec.Exclude = []string{"a", "b"}
	if cacheKey(a) == cacheKey(b) {
		t.Error(`Exclude {"a b"} and {"a","b"} must not collide in the cache key`)
	}
}

func TestFinishedJobRetentionBounded(t *testing.T) {
	e := NewEngine(Config{Workers: 1, QueueSize: 64, CacheSize: -1, MaxFinishedJobs: 3})
	defer e.Close()
	e.runAudit = func(ctx context.Context, req *Request) (*core.FACTReport, error) {
		return &core.FACTReport{Pipeline: req.Dataset}, nil
	}
	var ids []string
	for i := 0; i < 10; i++ {
		id, err := submitAudit(e, stubRequest(uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, ok := e.Job(ids[0]); ok {
		t.Error("oldest finished job should have been forgotten")
	}
	kept := 0
	for _, id := range ids {
		if _, ok := e.Job(id); ok {
			kept++
		}
	}
	if kept != 3 {
		t.Errorf("kept %d finished jobs, want 3", kept)
	}
}

func TestTimeoutHoldsWorkerUntilAuditUnwinds(t *testing.T) {
	e := NewEngine(Config{Workers: 1, QueueSize: 8, JobTimeout: 20 * time.Millisecond, CacheSize: -1})
	defer e.Close()
	release := make(chan struct{})
	var started atomic.Int64
	e.runAudit = func(ctx context.Context, req *Request) (*core.FACTReport, error) {
		if started.Add(1) == 1 {
			<-release // first job ignores its deadline entirely
			return nil, ctx.Err()
		}
		return &core.FACTReport{Pipeline: req.Dataset}, nil
	}

	first, err := submitAudit(e, stubRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	js, err := e.Wait(context.Background(), first)
	if err != nil {
		t.Fatal(err)
	}
	if js.Status != StatusFailed {
		t.Fatalf("first job = %s, want failed (timeout)", js.Status)
	}

	// The abandoned audit is still running; the single worker must not
	// pick up the second job until it unwinds.
	second, err := submitAudit(e, stubRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if got := started.Load(); got != 1 {
		t.Fatalf("second audit started while the first still occupies the worker (started=%d)", got)
	}
	close(release)
	if js, err := e.Wait(context.Background(), second); err != nil || js.Status != StatusDone {
		t.Fatalf("second job after release: %v %v", js.Status, err)
	}
}

func TestSubmitDuringCloseDoesNotPanic(t *testing.T) {
	for i := 0; i < 20; i++ {
		e := NewEngine(Config{Workers: 1, QueueSize: 4, CacheSize: -1})
		e.runAudit = func(ctx context.Context, req *Request) (*core.FACTReport, error) {
			return &core.FACTReport{}, nil
		}
		var wg sync.WaitGroup
		for s := 0; s < 4; s++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				for k := 0; k < 10; k++ {
					if _, err := submitAudit(e, stubRequest(seed*100+uint64(k))); err != nil {
						return // ErrBusy or ErrClosed are both fine; panics are not
					}
				}
			}(uint64(s + 1))
		}
		e.Close()
		wg.Wait()
	}
}
