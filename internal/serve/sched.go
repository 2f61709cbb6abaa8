package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/responsible-data-science/rds/internal/tenant"
)

// ErrTenantBusy is returned by Submit when the submitting tenant — not
// the service — is out of admission budget: its token bucket is empty
// or its per-tenant queue bound is reached. Other tenants' submissions
// proceed unaffected; the HTTP layer maps it to 429 (against ErrBusy's
// 503) so clients can tell "slow yourself down" from "the service is
// saturated". The error is always wrapped in a *RetryError carrying
// the suggested backoff.
var ErrTenantBusy = errors.New("serve: tenant admission budget exhausted")

// RetryError wraps an admission rejection (ErrBusy or ErrTenantBusy)
// with the engine-suggested backoff and the tenant it applies to. The
// HTTP layer renders After as a Retry-After header. errors.Is sees
// through it to the wrapped sentinel.
type RetryError struct {
	// Err is the underlying sentinel: ErrBusy (service saturated) or
	// ErrTenantBusy (this tenant's budget exhausted).
	Err error
	// After is the suggested minimum wait before retrying.
	After time.Duration
	// Tenant is the tenant the rejection applies to.
	Tenant string
}

// Error renders the wrapped sentinel plus the suggested backoff.
func (e *RetryError) Error() string {
	return fmt.Sprintf("%v (tenant %q, retry after %s)", e.Err, e.Tenant, e.After)
}

// Unwrap exposes the sentinel to errors.Is.
func (e *RetryError) Unwrap() error { return e.Err }

// RetryAfter extracts the suggested backoff from an admission
// rejection, rounding up to whole seconds (the Retry-After header
// granularity, minimum 1). ok is false for errors that carry none.
func RetryAfter(err error) (seconds int, ok bool) {
	var re *RetryError
	if !errors.As(err, &re) {
		return 0, false
	}
	secs := int((re.After + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs, true
}

// tenantQueue is one (tenant, admission class) FIFO of waiting jobs
// plus its weighted-fair and token-bucket state. Each class a tenant
// uses gets its own queue — own bucket, own ring slot — so interactive
// audits, pipeline stages, and system monitor re-audits of the same
// tenant are admitted and drained independently. All fields are
// guarded by the owning scheduler's mutex.
type tenantQueue struct {
	tenant string
	class  string
	jobs   []*job
	// deficit is the DRR credit: each ring visit grants the tenant's
	// weight, each served job spends 1. Reset when the queue drains so
	// an idle tenant cannot bank credit.
	deficit int
	// tokens and lastRefill implement the lazily-refilled token bucket.
	tokens     float64
	lastRefill time.Time
	inRing     bool
}

// scheduler replaces the engine's single FIFO channel: per-tenant FIFO
// queues drained in deficit-round-robin order, with per-tenant
// token-bucket admission at the front door. Enqueue rejections carry
// the distinction that matters to clients — ErrBusy when the service's
// aggregate queue is full, ErrTenantBusy when only the submitting
// tenant is over budget — and the aggregate depth/capacity gauges keep
// their single-queue meaning. Time is injected (cfg.Now) so admission
// and fairness are deterministic under test.
type scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond

	capacity int
	depth    int
	now      func() time.Time
	quotas   func(string) tenant.Quotas
	// busyAfter suggests the backoff for a queue-bound rejection given
	// the current aggregate depth (queue over drain rate); injected by
	// the engine.
	busyAfter func(depth int) time.Duration

	queues  map[string]*tenantQueue
	ring    []*tenantQueue
	ringIdx int
	closed  bool
}

func newScheduler(capacity int, now func() time.Time, quotas func(string) tenant.Quotas, busyAfter func(int) time.Duration) *scheduler {
	if now == nil {
		now = time.Now
	}
	if quotas == nil {
		quotas = func(string) tenant.Quotas { return tenant.Quotas{} }
	}
	if busyAfter == nil {
		busyAfter = func(int) time.Duration { return time.Second }
	}
	s := &scheduler{
		capacity:  capacity,
		now:       now,
		quotas:    quotas,
		busyAfter: busyAfter,
		queues:    map[string]*tenantQueue{},
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// refillLocked advances q's token bucket to now and returns the
// effective quotas. With RatePerSec 0 the bucket is disabled.
func (s *scheduler) refillLocked(q *tenantQueue, quo tenant.Quotas) {
	if quo.RatePerSec <= 0 {
		return
	}
	now := s.now()
	if q.lastRefill.IsZero() {
		// First sighting: a fresh bucket starts full.
		q.tokens = quo.EffectiveBurst()
		q.lastRefill = now
		return
	}
	elapsed := now.Sub(q.lastRefill).Seconds()
	if elapsed > 0 {
		q.tokens += elapsed * quo.RatePerSec
		if burst := quo.EffectiveBurst(); q.tokens > burst {
			q.tokens = burst
		}
		q.lastRefill = now
	}
}

// admit places j on the (tenantID, class) queue or rejects it with a
// *RetryError. The admission order is tenant-scoped checks first
// (token bucket, then per-tenant queue bound → ErrTenantBusy) and the
// aggregate bound last (→ ErrBusy): a tenant over its own budget is
// told so even when the service is also saturated, because "back off
// and retry" is the wrong prescription for a client that must slow
// down. A readmit re-enters an already-admitted job for its
// next stage: it bypasses the bucket, the per-tenant bound, and the
// aggregate bound — admission budget is charged once at the front
// door, never per stage — but still queues behind the tenant's other
// work in DRR order, so long pipelines cannot monopolize workers.
func (s *scheduler) admit(tenantID, class string, j *job, readmit bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	key := tenantID + "\x00" + class
	q := s.queues[key]
	if q == nil {
		q = &tenantQueue{tenant: tenantID, class: class}
		s.queues[key] = q
	}
	quo := classQuotas(s.quotas, tenantID, class)
	if !readmit {
		s.refillLocked(q, quo)
		if quo.RatePerSec > 0 && q.tokens < 1 {
			wait := time.Duration((1 - q.tokens) / quo.RatePerSec * float64(time.Second))
			return &RetryError{Err: ErrTenantBusy, After: wait, Tenant: tenantID}
		}
		if quo.MaxQueue > 0 && len(q.jobs) >= quo.MaxQueue {
			return &RetryError{Err: ErrTenantBusy, After: s.busyAfter(len(q.jobs)), Tenant: tenantID}
		}
		if s.depth >= s.capacity {
			return &RetryError{Err: ErrBusy, After: s.busyAfter(s.depth), Tenant: tenantID}
		}
		if quo.RatePerSec > 0 {
			q.tokens--
		}
	}
	q.jobs = append(q.jobs, j)
	s.depth++
	if !q.inRing {
		q.inRing = true
		s.ring = append(s.ring, q)
	}
	s.cond.Signal()
	return nil
}

// dequeue blocks until a job is available and returns it, or returns
// ok=false once the scheduler is closed AND fully drained — queued
// jobs submitted before Close still run, matching the old channel
// semantics.
func (s *scheduler) dequeue() (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if j := s.popLocked(); j != nil {
			return j, true
		}
		if s.closed {
			return nil, false
		}
		s.cond.Wait()
	}
}

// popLocked runs one deficit-round-robin step: visit the ring at the
// pointer, grant the tenant's weight when its credit is spent, serve
// one job per call, and advance the pointer only when the visited
// tenant's credit is exhausted — so a tenant with weight w drains w
// consecutive jobs per round and shares converge to the weight ratio.
func (s *scheduler) popLocked() *job {
	for len(s.ring) > 0 {
		if s.ringIdx >= len(s.ring) {
			s.ringIdx = 0
		}
		q := s.ring[s.ringIdx]
		if len(q.jobs) == 0 {
			s.dropFromRingLocked(s.ringIdx)
			continue
		}
		if q.deficit < 1 {
			q.deficit += s.quotas(q.tenant).EffectiveWeight()
		}
		j := q.jobs[0]
		q.jobs = q.jobs[1:]
		q.deficit--
		s.depth--
		if len(q.jobs) == 0 {
			s.dropFromRingLocked(s.ringIdx)
		} else if q.deficit < 1 {
			s.ringIdx++
		}
		return j
	}
	return nil
}

// dropFromRingLocked removes the drained queue at ring index i and
// zeroes its credit: an idle tenant re-enters the round-robin fresh
// rather than banking priority while absent.
func (s *scheduler) dropFromRingLocked(i int) {
	q := s.ring[i]
	q.inRing = false
	q.deficit = 0
	s.ring = append(s.ring[:i], s.ring[i+1:]...)
}

// close stops admissions and wakes every waiting worker so they can
// drain the remaining jobs and exit.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// queueDepth reports the aggregate number of waiting jobs across all
// tenants — the same gauge the single channel used to expose.
func (s *scheduler) queueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.depth
}

// tenantDepths returns each tenant's current queued-job count summed
// across its admission classes, omitting idle tenants with empty
// queues.
func (s *scheduler) tenantDepths() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]int{}
	for _, q := range s.queues {
		if len(q.jobs) > 0 {
			out[q.tenant] += len(q.jobs)
		}
	}
	return out
}
