package serve

import (
	"context"

	"github.com/responsible-data-science/rds/internal/tenant"
)

// Admission classes partition each tenant's scheduler state: every
// (tenant, class) pair gets its own FIFO queue, DRR ring slot, and
// token bucket, so work of one class can neither starve nor be starved
// by another class of the same tenant. Interactive audits and pipeline
// stages draw on the tenant's configured admission quotas (each class
// with its own bucket instance); the system class — monitor-plane
// window re-audits — is exempt from per-tenant rate limits and queue
// bounds entirely, because a tenant tightening its own rate_per_sec
// must not silence its drift scoring (only the service-wide aggregate
// bound applies).
const (
	// ClassInteractive is the default admission class: one-shot audits
	// submitted by clients.
	ClassInteractive = "interactive"
	// ClassPipeline is the admission class of staged-pipeline stages.
	ClassPipeline = "pipeline"
	// ClassSystem is the admission class of monitor-plane window
	// audits, exempt from per-tenant rate limits and queue bounds.
	ClassSystem = "system-monitor"
)

// validClass reports whether c names a known admission class.
func validClass(c string) bool {
	switch c {
	case ClassInteractive, ClassPipeline, ClassSystem:
		return true
	}
	return false
}

// classQuotas resolves the effective admission quotas for one
// (tenant, class) queue: the tenant's configured quotas for
// interactive and pipeline work, and unlimited admission (weight
// preserved for fair dequeue) for the system class.
func classQuotas(quotas func(string) tenant.Quotas, ten, class string) tenant.Quotas {
	if quotas == nil {
		return tenant.Quotas{}
	}
	q := quotas(ten)
	if class == ClassSystem {
		q.RatePerSec, q.Burst, q.MaxQueue = 0, 0, 0
	}
	return q
}

// Stage is one resumable unit of a job: a named body scheduled
// through the tenant admission path under its kind's admission class.
// Each completed stage hands a StageResult to the job's OnStage hook;
// the runtime then re-enqueues the job for its next stage, so long
// pipelines interleave fairly with everyone else's work at stage
// granularity instead of holding a worker end to end.
type Stage struct {
	// Name labels the stage in its StageResult ("train", "audit", ...).
	Name string
	// Kind is the stage's admission class (default ClassPipeline).
	Kind string
	// Run executes the stage. The returned detail is recorded in the
	// stage's StageResult (typed per stage kind: model metrics, FACT
	// grades, mitigation deltas, epsilon spent). An error fails the
	// whole job; remaining stages do not run.
	Run func(ctx context.Context) (detail any, err error)
}

// StageResult is the typed record a completed stage hands to its job's
// OnStage hook.
type StageResult struct {
	// Index is the stage's position in the job's stage list.
	Index int `json:"index"`
	// Stage is the stage's name.
	Stage string `json:"stage"`
	// Kind is the admission class the stage ran under.
	Kind string `json:"kind"`
	// Status is StatusDone or StatusFailed.
	Status Status `json:"status"`
	// ElapsedMillis is the stage's execution wall-clock time.
	ElapsedMillis float64 `json:"elapsed_millis"`
	// Detail is the stage's typed result payload, if any.
	Detail any `json:"detail,omitempty"`
	// Error carries the failure message for StatusFailed.
	Error string `json:"error,omitempty"`
}

// JobSpec describes one job: an ordered list of stages run through the
// engine one admission-and-dequeue cycle per stage. A one-shot audit is
// the one-stage spec AuditJob returns; a remediation pipeline is a
// multi-stage spec built by internal/pipeline.
type JobSpec struct {
	// Tenant is the owning tenant ("" means tenant.Default). It selects
	// the scheduler queues, admission budgets, and metrics slice every
	// stage of the job runs under.
	Tenant string
	// Name labels the job in status snapshots (JobStatus.Dataset).
	Name string
	// Stages is the ordered stage list. Required, non-empty.
	Stages []Stage
	// CacheKey, when set, keys the job in the report cache: Submit
	// answers a cached report without admitting the job, and a keyed job
	// whose final stage returns a *core.FACTReport caches it. Only a job
	// whose result is a pure function of the key may set it.
	CacheKey string
	// OnStage, when set, observes each stage's result synchronously
	// after the stage completes and before the next stage is scheduled
	// — the persistence hook: state saved here is durable before any
	// later stage runs.
	OnStage func(res StageResult)
	// OnFinish, when set, observes the job's terminal status exactly
	// once (StatusDone or StatusFailed).
	OnFinish func(final JobStatus)
}
