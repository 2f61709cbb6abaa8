package serve

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/responsible-data-science/rds/internal/tenant"
)

// fakeClock is a manually-advanced time source for deterministic
// token-bucket tests.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestFairDequeueEqualShares is the fairness property test: N
// equal-weight tenants offering unequal load must receive equal
// executed shares (within ±10%) over any window in which all of them
// stay backlogged.
func TestFairDequeueEqualShares(t *testing.T) {
	clock := newFakeClock()
	s := newScheduler(10_000, clock.now, nil, nil)

	const tenants = 4
	const minLoad = 50
	for i := 0; i < tenants; i++ {
		id := fmt.Sprintf("t%d", i)
		load := minLoad * (i + 1) // unequal offered load: 50, 100, 150, 200
		for j := 0; j < load; j++ {
			if err := s.admit(id, ClassInteractive, &job{id: id}, false); err != nil {
				t.Fatalf("enqueue %s #%d: %v", id, j, err)
			}
		}
	}

	// Drain exactly the window in which every tenant is backlogged.
	window := tenants * minLoad
	served := map[string]int{}
	for i := 0; i < window; i++ {
		s.mu.Lock()
		j := s.popLocked()
		s.mu.Unlock()
		if j == nil {
			t.Fatalf("popLocked returned nil at %d with work queued", i)
		}
		served[j.id]++
	}
	fair := window / tenants
	for id, n := range served {
		if diff := n - fair; diff > fair/10 || diff < -fair/10 {
			t.Fatalf("tenant %s served %d of %d (fair share %d ±10%%)", id, n, window, fair)
		}
	}
	if len(served) != tenants {
		t.Fatalf("served tenants = %v, want all %d", served, tenants)
	}
}

// TestFairDequeueWeightedShares checks that DRR shares converge to the
// configured weight ratio: a weight-3 tenant drains three jobs for
// every one of a weight-1 tenant.
func TestFairDequeueWeightedShares(t *testing.T) {
	quotas := func(id string) tenant.Quotas {
		if id == "heavy" {
			return tenant.Quotas{Weight: 3}
		}
		return tenant.Quotas{Weight: 1}
	}
	clock := newFakeClock()
	s := newScheduler(10_000, clock.now, quotas, nil)
	for i := 0; i < 200; i++ {
		if err := s.admit("heavy", ClassInteractive, &job{}, false); err != nil {
			t.Fatal(err)
		}
		if err := s.admit("light", ClassInteractive, &job{}, false); err != nil {
			t.Fatal(err)
		}
	}
	// Over 100 pops both stay backlogged; heavy should take ~75.
	start := s.tenantDepths()
	for i := 0; i < 100; i++ {
		s.mu.Lock()
		j := s.popLocked()
		s.mu.Unlock()
		if j == nil {
			t.Fatalf("popLocked returned nil at %d", i)
		}
	}
	end := s.tenantDepths()
	heavyServed := start["heavy"] - end["heavy"]
	lightServed := start["light"] - end["light"]
	if heavyServed < 70 || heavyServed > 80 {
		t.Fatalf("heavy served %d of 100 (want ~75, weight ratio 3:1); light %d", heavyServed, lightServed)
	}
}

// TestNoStarvationUnderSaturatingTenant is the starvation regression
// test: with one tenant holding a huge backlog, a second tenant's
// single job must be served within one full DRR round, not after the
// hog drains.
func TestNoStarvationUnderSaturatingTenant(t *testing.T) {
	clock := newFakeClock()
	s := newScheduler(10_000, clock.now, nil, nil)
	for i := 0; i < 500; i++ {
		if err := s.admit("hog", ClassInteractive, &job{}, false); err != nil {
			t.Fatal(err)
		}
	}
	// Serve a few so the ring pointer sits mid-hog.
	for i := 0; i < 3; i++ {
		s.mu.Lock()
		s.popLocked()
		s.mu.Unlock()
	}
	if err := s.admit("mouse", ClassInteractive, &job{id: "mouse-job"}, false); err != nil {
		t.Fatal(err)
	}
	// Equal weights: the mouse's job must surface within 2 pops (one
	// hog visit + the mouse's own).
	for i := 0; i < 2; i++ {
		s.mu.Lock()
		j := s.popLocked()
		s.mu.Unlock()
		if j != nil && j.id == "mouse-job" {
			return
		}
	}
	t.Fatal("mouse's job starved behind the hog's 500-deep backlog")
}

// TestTokenBucketAdmission pins the token bucket's deterministic
// behavior under a fake clock: burst admits, then ErrTenantBusy with a
// computable Retry-After, then a refill after the clock advances.
func TestTokenBucketAdmission(t *testing.T) {
	clock := newFakeClock()
	quotas := func(string) tenant.Quotas {
		return tenant.Quotas{RatePerSec: 1, Burst: 2}
	}
	s := newScheduler(100, clock.now, quotas, nil)

	for i := 0; i < 2; i++ {
		if err := s.admit("a", ClassInteractive, &job{}, false); err != nil {
			t.Fatalf("burst admit #%d: %v", i, err)
		}
	}
	err := s.admit("a", ClassInteractive, &job{}, false)
	if !errors.Is(err, ErrTenantBusy) {
		t.Fatalf("over-burst submit: got %v, want ErrTenantBusy", err)
	}
	if secs, ok := RetryAfter(err); !ok || secs != 1 {
		t.Fatalf("RetryAfter = %d,%v; want 1,true", secs, ok)
	}
	// Other tenants are unaffected by a's empty bucket.
	if err := s.admit("b", ClassInteractive, &job{}, false); err != nil {
		t.Fatalf("tenant b while a throttled: %v", err)
	}
	clock.advance(time.Second)
	if err := s.admit("a", ClassInteractive, &job{}, false); err != nil {
		t.Fatalf("post-refill admit: %v", err)
	}
}

// TestPerTenantQueueBound checks MaxQueue rejections are per-tenant:
// the bounded tenant gets ErrTenantBusy while others keep enqueueing.
func TestPerTenantQueueBound(t *testing.T) {
	clock := newFakeClock()
	quotas := func(id string) tenant.Quotas {
		if id == "capped" {
			return tenant.Quotas{MaxQueue: 2}
		}
		return tenant.Quotas{}
	}
	s := newScheduler(100, clock.now, quotas, nil)
	for i := 0; i < 2; i++ {
		if err := s.admit("capped", ClassInteractive, &job{}, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.admit("capped", ClassInteractive, &job{}, false); !errors.Is(err, ErrTenantBusy) {
		t.Fatalf("over-bound submit: got %v, want ErrTenantBusy", err)
	}
	if err := s.admit("free", ClassInteractive, &job{}, false); err != nil {
		t.Fatalf("unbounded tenant alongside capped one: %v", err)
	}
}

// TestQueueCapacitySnapshot pins the satellite contract: the
// queue_capacity gauge is snapshotted once at engine construction and
// never re-read from a Config the caller may still be mutating.
func TestQueueCapacitySnapshot(t *testing.T) {
	cfg := Config{Workers: 1, QueueSize: 7}
	e := NewEngine(cfg)
	defer e.Close()
	cfg.QueueSize = 99 // caller mutates its copy after construction
	if got := e.QueueCapacity(); got != 7 {
		t.Fatalf("QueueCapacity() = %d, want the construction-time 7", got)
	}
}

// TestQuotaOverrideAppliesOnNextAdmit checks that admit resolves a
// tenant's quotas on every call: an override set after the tenant's
// queue exists binds the very next admit.
func TestQuotaOverrideAppliesOnNextAdmit(t *testing.T) {
	clock := newFakeClock()
	var maxQueue int
	quotas := func(string) tenant.Quotas { return tenant.Quotas{MaxQueue: maxQueue} }
	s := newScheduler(100, clock.now, quotas, nil)
	for i := 0; i < 2; i++ {
		if err := s.admit("t", ClassInteractive, &job{}, false); err != nil {
			t.Fatal(err)
		}
	}
	maxQueue = 2
	if err := s.admit("t", ClassInteractive, &job{}, false); !errors.Is(err, ErrTenantBusy) {
		t.Fatalf("admit after lowering MaxQueue to 2: got %v, want ErrTenantBusy", err)
	}
	maxQueue = 3
	if err := s.admit("t", ClassInteractive, &job{}, false); err != nil {
		t.Fatalf("admit after raising MaxQueue to 3: %v", err)
	}
}
