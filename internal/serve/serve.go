// Package serve turns the one-shot FACT audit of internal/core into an
// always-on service: a worker-pool engine that runs many pipeline audits
// concurrently, with a bounded job queue for backpressure, per-job
// timeouts, an LRU report cache keyed by (dataset hash, policy hash) so
// unchanged data is re-graded from memory, and service metrics
// (throughput, cache hit rate, latency quantiles).
//
// The paper's "green data science" vision is a gauge that continuously
// grades pipelines Green/Amber/Red; this package is that gauge as
// infrastructure, and it is the request/response plane of a two-plane
// architecture: internal/monitor layers a monitoring plane (windowed
// stream audits, drift detection, scheduled re-audits, alerting) on the
// same Engine. cmd/rds-serve exposes both over HTTP (POST /v1/audit,
// GET /v1/audit/{id}, /v1/monitors, /healthz, /metrics);
// examples/auditservice and examples/continuousaudit are runnable
// walkthroughs of the two planes.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/policy"
	"github.com/responsible-data-science/rds/internal/provenance"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// ErrBusy is returned by Submit when the service-wide job queue is
// full — every tenant is affected, the service itself is saturated.
// The retry contract: Submit wraps it in a *RetryError whose After is
// the engine-suggested backoff (estimated queue drain time), the HTTP
// layer maps it to 503 with a Retry-After header, and clients should
// wait at least that long before retrying. Contrast ErrTenantBusy
// (429): only the submitting tenant is over budget.
var ErrBusy = errors.New("serve: job queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("serve: engine closed")

// Config parameterizes an Engine. Zero values select sensible defaults.
type Config struct {
	// Workers is the number of concurrent audit workers
	// (default runtime.GOMAXPROCS(0)).
	Workers int
	// QueueSize bounds the number of jobs waiting for a worker
	// (default 64). A full queue rejects submissions with ErrBusy
	// rather than buffering without limit.
	QueueSize int
	// JobTimeout caps one audit's wall-clock time (default 60s).
	// Jobs that exceed it are marked failed.
	JobTimeout time.Duration
	// CacheSize is the report cache capacity in entries (default 128).
	// Negative disables caching.
	CacheSize int
	// MaxFinishedJobs bounds how many finished jobs stay queryable via
	// GET /v1/audit/{id} (default 1024). Older finished jobs are
	// forgotten so an always-on service does not grow without limit.
	MaxFinishedJobs int
	// TenantQuotas resolves a tenant id to its admission quotas
	// (weight, token-bucket rate, queue bound) — typically
	// (*tenant.Registry).Quotas. Nil applies the zero Quotas to every
	// tenant: weight 1, no rate limit, no per-tenant bound, which is
	// exactly the historical single-queue behavior.
	TenantQuotas func(string) tenant.Quotas
	// Now is the scheduler's clock (default time.Now). Tests inject a
	// fake so token-bucket admission is deterministic. Scheduling order
	// never affects audit results — only which rejection a submission
	// gets and when.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 60 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.MaxFinishedJobs <= 0 {
		c.MaxFinishedJobs = 1024
	}
	return c
}

// Request describes one audit: the dataset, the training spec for the
// model under audit, and the FACT policy to grade against.
type Request struct {
	// Tenant is the submitting tenant's id ("" means tenant.Default).
	// It selects the scheduler queue, admission budget, and metrics
	// slice the job lands in — and nothing else: audit results are a
	// pure function of the fields below, never of who submitted or how
	// the scheduler interleaved the work.
	Tenant string
	// Dataset names the data for reports and logs.
	Dataset string
	// Data is the dataset to audit. Required.
	Data *frame.Frame
	// Policy is the FACT policy the pipeline must satisfy.
	Policy policy.FACTPolicy
	// Spec describes the training run (target, sensitive attribute,
	// protected/reference groups, mitigation).
	Spec core.TrainSpec
	// Seed drives the pipeline's stochastic steps (default 1).
	Seed uint64
	// DataHash optionally carries a precomputed, collision-free content
	// identifier for Data — a dataset-registry ref (internal/dataset),
	// or the monitor's chunk-derived window hash (a hash of the
	// window's per-chunk frame.Hash values). When set, the engine
	// trusts it and skips re-hashing Data for the report-cache key, so
	// a resolve-by-ref submit or a window re-audit costs O(1) in
	// dataset size. It MUST identify Data's content uniquely: handing
	// the engine a hash that two different datasets share serves
	// mislabeled cached reports.
	DataHash string
	// Class is the admission class the audit is scheduled under
	// (default ClassInteractive). The monitor plane submits its window
	// re-audits as ClassSystem so a tenant's own rate limit cannot
	// starve its drift scoring. Never part of the cache key: class
	// affects scheduling only, not results.
	Class string

	// frameHash is Data's frame.Hash when it is already known: the
	// dataset ref of a dataset_ref request, or the hash AuditJob
	// computed for the cache key. RunAudit passes it to the pipeline's
	// load so the frame is hashed once per audit. DataHash cannot
	// stand in for it: a monitor window's is derived from its chunks.
	frameHash string
}

// contentHash returns Data's frame.Hash, computing it unless known.
func (r *Request) contentHash() string {
	if r.frameHash != "" {
		return r.frameHash
	}
	return r.Data.Hash()
}

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states.
const (
	// StatusQueued means the job is waiting for a worker.
	StatusQueued Status = "queued"
	// StatusRunning means a worker is executing the audit.
	StatusRunning Status = "running"
	// StatusDone means the audit completed and Report is set.
	StatusDone Status = "done"
	// StatusFailed means the audit errored or timed out.
	StatusFailed Status = "failed"
)

// JobStatus is a point-in-time snapshot of one submitted job,
// JSON-serializable for the HTTP API.
type JobStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	// Dataset is the job's name: the audited dataset's name for an
	// audit, the run id for a pipeline.
	Dataset  string `json:"dataset"`
	Status   Status `json:"status"`
	CacheHit bool   `json:"cache_hit"`
	// Interrupted marks a StatusFailed job that was cut off by engine
	// shutdown between stages rather than by a failing stage: every
	// completed stage was handed to OnStage, so a durability layer can
	// resume the job at the next boot instead of recording a failure.
	Interrupted bool `json:"interrupted,omitempty"`
	// Report is set when the job's final stage produced a FACT report.
	Report *core.FACTReport `json:"report,omitempty"`
	Error  string           `json:"error,omitempty"`
	// ElapsedMillis is queue-to-finish latency for finished jobs.
	ElapsedMillis float64 `json:"elapsed_millis,omitempty"`
}

// job is the engine-internal mutable state behind one submitted
// JobSpec. It runs one stage per dequeue until its stages are done or
// one fails.
type job struct {
	id       string
	tenant   string
	name     string
	cacheKey string
	// stages is the ordered work list, kept until the job is evicted
	// from retention.
	stages   []Stage
	onStage  func(StageResult)
	onFinish func(JobStatus)

	mu       sync.Mutex
	status   Status
	cacheHit bool
	cur      int // index of the next (or currently running) stage
	// interrupted marks jobs finalized because the engine closed
	// between stages (shutdown, not a stage failure): the completed
	// stages are durable and the job is resumable at the next boot.
	interrupted bool
	report      *core.FACTReport
	err         error
	submitted   time.Time
	finished    time.Time

	done chan struct{}
}

// class is the job's admission class: its first stage's. Admission is
// charged, and the job counted, under it.
func (j *job) class() string { return j.stages[0].Kind }

func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JobStatus{
		ID:          j.id,
		Tenant:      j.tenant,
		Dataset:     j.name,
		Status:      j.status,
		CacheHit:    j.cacheHit,
		Interrupted: j.interrupted,
		Report:      j.report,
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	if !j.finished.IsZero() {
		s.ElapsedMillis = float64(j.finished.Sub(j.submitted)) / float64(time.Millisecond)
	}
	return s
}

// Engine runs FACT audits on a bounded worker pool. Create one with
// NewEngine, submit work with Submit, and stop it with Close. All
// methods are safe for concurrent use.
type Engine struct {
	cfg   Config
	sched *scheduler
	cache *ReportCache
	// queueCap is the scheduler's aggregate capacity, snapshotted once
	// at construction: the /healthz and /metrics queue_capacity gauge
	// reads this field, never Config().QueueSize, so a future config
	// copy or mutation can't drift from the capacity actually enforced.
	queueCap int
	metrics  *Metrics

	mu       sync.Mutex
	jobs     map[string]*job
	finished []string // finished job ids, oldest first, for bounded retention
	seq      uint64

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// runAudit is swapped by tests to control job duration.
	runAudit func(ctx context.Context, req *Request) (*core.FACTReport, error)
}

// NewEngine starts cfg.Workers workers and returns the running engine.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:      cfg,
		queueCap: cfg.QueueSize,
		jobs:     map[string]*job{},
		closed:   make(chan struct{}),
		metrics:  newMetrics(cfg.Workers),
		runAudit: RunAudit,
	}
	e.sched = newScheduler(cfg.QueueSize, cfg.Now, cfg.TenantQuotas, e.busyBackoff)
	if cfg.CacheSize > 0 {
		e.cache = NewReportCache(cfg.CacheSize)
	}
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// MetricsSnapshot renders the engine metrics with each tenant's live
// queued gauge filled in from the scheduler — the view /metrics
// serves.
func (e *Engine) MetricsSnapshot() Snapshot {
	s := e.metrics.Snapshot()
	for id, d := range e.sched.tenantDepths() {
		if s.Tenants == nil {
			s.Tenants = map[string]TenantSnapshot{}
		}
		ts := s.Tenants[id]
		ts.Queued = d
		s.Tenants[id] = ts
	}
	return s
}

// QueueDepth reports how many jobs are waiting for a worker, across
// all tenants.
func (e *Engine) QueueDepth() int { return e.sched.queueDepth() }

// QueueCapacity reports the aggregate queue bound, snapshotted at
// construction (see Engine.queueCap).
func (e *Engine) QueueCapacity() int { return e.queueCap }

// busyBackoff estimates how long a rejected client should wait for the
// aggregate queue to make room: queued work over drain rate, using the
// executed-job p50 as the per-job cost. With no latency history yet
// it suggests one second.
func (e *Engine) busyBackoff(depth int) time.Duration {
	p50 := e.metrics.execP50()
	if p50 <= 0 {
		return time.Second
	}
	wait := time.Duration(depth/e.cfg.Workers+1) * p50
	if wait < time.Second {
		wait = time.Second
	}
	if wait > time.Minute {
		wait = time.Minute
	}
	return wait
}

// AuditJob validates and defaults req and returns the one-stage job
// that audits it, keyed in the report cache by the request's content
// (cacheKey). The tenant ("" = tenant.Default) selects the scheduler
// queue and admission budget; the class (default ClassInteractive) the
// admission class.
func (e *Engine) AuditJob(req *Request) (JobSpec, error) {
	if req == nil || req.Data == nil || req.Data.NumRows() == 0 {
		return JobSpec{}, fmt.Errorf("serve: an audit needs a non-empty dataset")
	}
	ten, err := tenant.Normalize(req.Tenant)
	if err != nil {
		return JobSpec{}, err
	}
	req.Tenant = ten
	if req.Dataset == "" {
		req.Dataset = "dataset"
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if req.Class == "" {
		req.Class = ClassInteractive
	}
	if err := req.Policy.Validate(); err != nil {
		return JobSpec{}, err
	}
	// The job runs a copy of the request that carries the frame hash
	// computed for the cache key on to the pipeline's load.
	run := *req
	if run.DataHash == "" {
		run.frameHash = run.contentHash()
	}
	return JobSpec{
		Tenant:   ten,
		Name:     req.Dataset,
		CacheKey: cacheKey(&run),
		Stages: []Stage{{
			Name: "audit",
			Kind: req.Class,
			Run: func(ctx context.Context) (any, error) {
				rep, err := e.runAudit(ctx, &run)
				if err != nil {
					return nil, err
				}
				return rep, nil
			},
		}},
	}, nil
}

// Submit validates and enqueues one job, returning its id. A keyed
// job whose report is cached finishes at once, without consuming
// admission budget. Otherwise admission (token bucket, per-tenant and
// aggregate queue bounds) is charged once, for the first stage's
// class; later stages re-enter the scheduler through the DRR ring
// without consuming fresh budget. Rejections are *RetryError values
// wrapping ErrBusy (aggregate queue full, all tenants affected) or
// ErrTenantBusy (this tenant's token bucket or queue bound exhausted),
// each carrying a suggested backoff.
func (e *Engine) Submit(spec JobSpec) (string, error) {
	if len(spec.Stages) == 0 {
		return "", fmt.Errorf("serve: a job needs at least one stage")
	}
	ten, err := tenant.Normalize(spec.Tenant)
	if err != nil {
		return "", err
	}
	for i := range spec.Stages {
		st := &spec.Stages[i]
		if st.Run == nil {
			return "", fmt.Errorf("serve: stage %d (%q) has no body", i, st.Name)
		}
		if st.Name == "" {
			st.Name = fmt.Sprintf("stage-%d", i)
		}
		if st.Kind == "" {
			st.Kind = ClassPipeline
		}
		if !validClass(st.Kind) {
			return "", fmt.Errorf("serve: stage %d (%q) has unknown admission class %q", i, st.Name, st.Kind)
		}
	}
	select {
	case <-e.closed:
		return "", ErrClosed
	default:
	}

	j := &job{
		id:        e.nextID(),
		tenant:    ten,
		name:      spec.Name,
		cacheKey:  spec.CacheKey,
		stages:    spec.Stages,
		onStage:   spec.OnStage,
		onFinish:  spec.OnFinish,
		status:    StatusQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	e.metrics.submitted(ten, j.class())

	if j.cacheKey != "" && e.cache != nil {
		if rep, ok := e.cache.Get(j.cacheKey); ok {
			e.metrics.cacheHit()
			j.cacheHit = true
			e.register(j)
			e.finish(j, rep, nil)
			return j.id, nil
		}
		e.metrics.cacheMiss()
	}

	e.register(j)
	if err := e.sched.admit(ten, j.class(), j, false); err != nil {
		e.unregister(j.id)
		if !errors.Is(err, ErrClosed) {
			e.metrics.rejected(ten, j.class())
		}
		return "", err
	}
	return j.id, nil
}

// Job returns a snapshot of the job with the given id.
func (e *Engine) Job(id string) (JobStatus, bool) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return j.snapshot(), true
}

// Wait blocks until the job finishes (done or failed) or ctx is
// cancelled, returning the final snapshot.
func (e *Engine) Wait(ctx context.Context, id string) (JobStatus, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("serve: no job %q", id)
	}
	select {
	case <-j.done:
		return j.snapshot(), nil
	case <-ctx.Done():
		return j.snapshot(), ctx.Err()
	}
}

// Close stops accepting submissions, waits for queued and running jobs
// to drain, and stops the workers.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		close(e.closed)
		e.sched.close()
	})
	e.wg.Wait()
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		j, ok := e.sched.dequeue()
		if !ok {
			return
		}
		e.execute(j)
	}
}

// execute runs exactly one stage of j on the calling worker. A
// one-stage job (an audit) finishes in a single call; longer jobs
// re-enter the scheduler between stages, so a seven-stage pipeline
// shares workers at stage granularity with everything else in the ring.
func (e *Engine) execute(j *job) {
	j.mu.Lock()
	j.status = StatusRunning
	idx := j.cur
	st := j.stages[idx]
	j.mu.Unlock()
	e.metrics.started()
	defer e.metrics.stopped()

	ctx, cancel := context.WithTimeout(context.Background(), e.cfg.JobTimeout)
	defer cancel()

	type outcome struct {
		detail any
		err    error
	}
	ch := make(chan outcome, 1)
	started := time.Now()
	go func() {
		detail, err := st.Run(ctx)
		ch <- outcome{detail, err}
	}()

	var out outcome
	timedOut := false
	select {
	case out = <-ch:
	case <-ctx.Done():
		timedOut = true
		out.err = fmt.Errorf("serve: job %s stage %q timed out after %s: %w", j.id, st.Name, e.cfg.JobTimeout, ctx.Err())
	}

	res := StageResult{
		Index:         idx,
		Stage:         st.Name,
		Kind:          st.Kind,
		Status:        StatusDone,
		ElapsedMillis: float64(time.Since(started)) / float64(time.Millisecond),
		Detail:        out.detail,
	}
	if out.err != nil {
		res.Status = StatusFailed
		res.Error = out.err.Error()
	}
	e.metrics.stageExecuted(j.tenant)
	// The persistence hook runs synchronously between stage completion
	// and the next stage's scheduling: state saved here is durable
	// before any later stage can run.
	if j.onStage != nil {
		j.onStage(res)
	}

	if next := idx + 1; out.err == nil && next < len(j.stages) {
		j.mu.Lock()
		j.status = StatusQueued
		j.cur = next
		j.mu.Unlock()
		err := e.sched.admit(j.tenant, j.stages[next].Kind, j, true)
		if err == nil {
			return
		}
		// Engine closing mid-job: finalize failed. The stage results
		// already handed to onStage are durable, so a restart can resume
		// from the last completed stage.
		j.mu.Lock()
		j.interrupted = true
		j.mu.Unlock()
		out.err = fmt.Errorf("serve: job %s interrupted before stage %q: %w", j.id, j.stages[next].Name, err)
	}
	e.finish(j, out.detail, out.err)

	// On timeout the waiter is already unblocked (done is closed), but
	// the stage goroutine cannot be killed — it unwinds at its next ctx
	// check. Hold this worker until it does, so actual concurrency never
	// exceeds Workers even under a storm of timeouts.
	if timedOut {
		<-ch
	}
}

// finish settles j's terminal state — failed with err, or done with
// its final stage's detail — then records the metrics, caches a keyed
// job's fresh report, fires OnFinish, enters the job into bounded
// retention, and only then wakes waiters, so a waiter never observes
// more finished jobs than MaxFinishedJobs. A cache hit finishes with
// the cached report and counts as a job that never ran.
func (e *Engine) finish(j *job, detail any, err error) {
	rep, _ := detail.(*core.FACTReport)
	j.mu.Lock()
	j.finished = time.Now()
	if err != nil {
		j.status, j.err = StatusFailed, err
	} else {
		j.status, j.report = StatusDone, rep
	}
	hit, elapsed := j.cacheHit, j.finished.Sub(j.submitted)
	j.mu.Unlock()

	if err == nil && rep != nil && j.cacheKey != "" && !hit && e.cache != nil {
		e.cache.PutAs(j.tenant, j.cacheKey, rep)
	}
	e.metrics.finished(j.tenant, j.class(), err == nil, hit, elapsed)
	if j.onFinish != nil {
		j.onFinish(j.snapshot())
	}
	e.retainFinished(j.id)
	close(j.done)
}

func (e *Engine) register(j *job) {
	e.mu.Lock()
	e.jobs[j.id] = j
	e.mu.Unlock()
}

func (e *Engine) unregister(id string) {
	e.mu.Lock()
	delete(e.jobs, id)
	e.mu.Unlock()
}

// retainFinished records a finished job for bounded retention: once more
// than MaxFinishedJobs have completed, the oldest are forgotten so the
// jobs map cannot grow without limit on an always-on service.
func (e *Engine) retainFinished(id string) {
	e.mu.Lock()
	e.finished = append(e.finished, id)
	for len(e.finished) > e.cfg.MaxFinishedJobs {
		delete(e.jobs, e.finished[0])
		e.finished = e.finished[1:]
	}
	e.mu.Unlock()
}

func (e *Engine) nextID() string {
	e.mu.Lock()
	e.seq++
	id := e.seq
	e.mu.Unlock()
	return fmt.Sprintf("job-%06d", id)
}

// cacheKey derives the report-cache key: audits are pure functions of
// (dataset content, policy, training spec, seed), so two requests with
// equal keys must produce identical reports. The dataset name is
// included because the report embeds it; two names for the same bytes
// are cached separately rather than served a mislabeled report. The
// host's GOMAXPROCS, which sets the audit's shard count, is
// deliberately excluded: the exec merge is shard-invariant. A request
// carrying DataHash (a dataset-registry ref IS the content hash)
// short-circuits the O(dataset) re-hash.
func cacheKey(req *Request) string {
	dataHash := req.DataHash
	if dataHash == "" {
		dataHash = req.contentHash()
	}
	return provenance.HashStrings(
		req.Dataset,
		dataHash,
		req.Policy.Hash(),
		specHash(req.Spec),
		strconv.FormatUint(req.Seed, 10),
	)
}

func specHash(s core.TrainSpec) string {
	parts := []string{
		s.Target, s.Sensitive, s.Protected, s.Reference,
		strconv.FormatFloat(s.TestFraction, 'g', -1, 64),
		s.Mitigation.String(),
		strconv.Itoa(s.Epochs),
		// Count plus individual elements: HashStrings length-frames each
		// part, so {"a b"} and {"a","b"} cannot collide.
		strconv.Itoa(len(s.Exclude)),
	}
	parts = append(parts, s.Exclude...)
	// Appended only when set so every legacy spec (TrueGroups empty)
	// keeps its pre-existing hash — cached reports stay addressable
	// across the upgrade.
	if s.TrueGroups != "" {
		parts = append(parts, "true_groups", s.TrueGroups)
	}
	return provenance.HashStrings(parts...)
}

// RunAudit executes one audit request synchronously on the caller's
// goroutine: Load -> Train -> Audit over a fresh core.Pipeline, checking
// ctx between stages. The audit's row-scans run on the sharded
// execution engine at GOMAXPROCS shards. It is the engine's default
// job body and is exported so callers (benchmarks, CLIs) can measure
// the single-worker baseline.
func RunAudit(ctx context.Context, req *Request) (*core.FACTReport, error) {
	pipe, err := core.New(core.Config{
		Name:   req.Dataset,
		Policy: req.Policy,
		Seed:   req.Seed,
		Actor:  "rds-serve",
	})
	if err != nil {
		return nil, err
	}
	if err := pipe.LoadHashed(req.Dataset, req.Data, req.frameHash); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	model, err := pipe.Train(req.Spec)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return pipe.Audit(model)
}
