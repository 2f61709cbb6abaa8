package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// TestPerTenantMetricsSlices pins the /metrics tenancy contract: the
// engine snapshot carries a per-tenant slice of the counters
// (submitted / executed / rejected) plus the live queued gauge, and a
// rejection shows up only on the rejected tenant's slice.
func TestPerTenantMetricsSlices(t *testing.T) {
	quotas := func(id string) tenant.Quotas {
		if id == "capped" {
			return tenant.Quotas{MaxQueue: 1}
		}
		return tenant.Quotas{}
	}
	e := NewEngine(Config{Workers: 1, QueueSize: 8, CacheSize: -1, TenantQuotas: quotas})
	defer e.Close()
	release := make(chan struct{})
	started := make(chan struct{})
	var startOnce, releaseOnce sync.Once
	defer releaseOnce.Do(func() { close(release) })
	e.runAudit = func(ctx context.Context, req *Request) (*core.FACTReport, error) {
		startOnce.Do(func() { close(started) })
		<-release
		return &core.FACTReport{Pipeline: req.Dataset}, nil
	}

	submitAs := func(ten string, seed uint64) (string, error) {
		req := stubRequest(seed)
		req.Tenant = ten
		return submitAudit(e, req)
	}

	// The single worker grabs a's first job; everything after it queues.
	var ids []string
	id, err := submitAs("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, id)
	<-started

	for _, sub := range []struct {
		ten  string
		seed uint64
	}{{"a", 2}, {"b", 3}, {"capped", 4}} {
		id, err := submitAs(sub.ten, sub.seed)
		if err != nil {
			t.Fatalf("submit %s: %v", sub.ten, err)
		}
		ids = append(ids, id)
	}
	// capped is at its MaxQueue of 1: the next submission is rejected.
	if _, err := submitAs("capped", 5); !errors.Is(err, ErrTenantBusy) {
		t.Fatalf("capped over bound: %v, want ErrTenantBusy", err)
	}

	snap := e.MetricsSnapshot()
	for _, want := range []struct {
		ten                 string
		submitted, rejected uint64
		queued              int
	}{{"a", 2, 0, 1}, {"b", 1, 0, 1}, {"capped", 2, 1, 1}} {
		ts := snap.Tenants[want.ten]
		if ts.Submitted != want.submitted || ts.Rejected != want.rejected || ts.Queued != want.queued {
			t.Fatalf("tenant %s slice = %+v, want submitted %d rejected %d queued %d",
				want.ten, ts, want.submitted, want.rejected, want.queued)
		}
	}
	if got := snap.Classes[ClassInteractive].Rejected; got != 1 {
		t.Fatalf("interactive class rejected = %d, want 1", got)
	}

	releaseOnce.Do(func() { close(release) })
	for _, id := range ids {
		if _, err := e.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	snap = e.MetricsSnapshot()
	if got := snap.Tenants["a"].Executed; got != 2 {
		t.Fatalf("a executed = %d, want 2", got)
	}
	if got := snap.Tenants["b"].Executed; got != 1 {
		t.Fatalf("b executed = %d, want 1", got)
	}
	for id, ts := range snap.Tenants {
		if ts.Queued != 0 {
			t.Fatalf("tenant %s queued = %d after drain, want 0", id, ts.Queued)
		}
	}
}

// TestBusyBackoffEstimate pins the Retry-After estimator: one second
// with no latency history, queue-over-drain-rate once executed-audit
// latencies exist, clamped to [1s, 60s].
func TestBusyBackoffEstimate(t *testing.T) {
	e := NewEngine(Config{Workers: 1, CacheSize: -1})
	defer e.Close()
	if got := e.busyBackoff(100); got != time.Second {
		t.Fatalf("backoff with no history = %s, want 1s", got)
	}
	e.runAudit = func(ctx context.Context, req *Request) (*core.FACTReport, error) {
		time.Sleep(5 * time.Millisecond)
		return &core.FACTReport{Pipeline: req.Dataset}, nil
	}
	id, err := submitAudit(e, stubRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	if got := e.busyBackoff(10); got < time.Second || got > time.Minute {
		t.Fatalf("backoff with history = %s, want within [1s, 60s]", got)
	}
	// A pathological depth clamps at the ceiling instead of promising
	// hours.
	if got := e.busyBackoff(1 << 30); got != time.Minute {
		t.Fatalf("backoff at huge depth = %s, want the 60s clamp", got)
	}
}

// TestRetryAfterNonRetryError pins that RetryAfter only answers for
// admission rejections carrying a *RetryError.
func TestRetryAfterNonRetryError(t *testing.T) {
	if secs, ok := RetryAfter(errors.New("plain")); ok || secs != 0 {
		t.Fatalf("RetryAfter(plain error) = %d,%v, want 0,false", secs, ok)
	}
}
