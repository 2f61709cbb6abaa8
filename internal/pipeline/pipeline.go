// Package pipeline is the remediation plane: it runs the paper's full
// responsible-data-science loop — train a classifier, audit it,
// mitigate, re-audit, privatize the sensitive attribute under local
// differential privacy, retrain, re-audit — as a staged job on the
// serve engine's runtime. Each stage is admitted through the tenant
// scheduler under the "pipeline" class, hands a typed result to the
// job's OnStage hook, and persists its outcome under store
// KindPipelines before the next stage may run, so a killed process
// resumes every in-flight pipeline at its last completed stage.
//
// The stage vocabulary mirrors the exemplar curriculum (classifier →
// fair classifier → private classifier → private+fair classifier):
//
//	train          fit the baseline logistic model (no mitigation)
//	audit          FACT-audit the current model
//	mitigate       retrain with the spec's fairness mitigation
//	re-audit       FACT-audit again (alias of audit; reads better in specs)
//	ldp-privatize  randomized-response the sensitive column, keeping the
//	               true values in "<sensitive>__true" for the auditor
//	retrain        retrain on the privatized frame (current mitigation);
//	               subsequent audits group by the true attribute
//
// cmd/rds-serve exposes the plane as POST /v1/pipelines and
// GET /v1/pipelines/{id}.
package pipeline

import (
	"encoding/json"
	"fmt"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/policy"
	"github.com/responsible-data-science/rds/internal/serve"
)

// Stage names.
const (
	// StageTrain fits the baseline model without mitigation.
	StageTrain = "train"
	// StageAudit FACT-audits the current model.
	StageAudit = "audit"
	// StageMitigate retrains with the spec's fairness mitigation.
	StageMitigate = "mitigate"
	// StageReaudit is audit under the name pipeline specs read best with.
	StageReaudit = "re-audit"
	// StagePrivatize applies randomized response to the sensitive column.
	StagePrivatize = "ldp-privatize"
	// StageRetrain refits on the (possibly privatized) working frame.
	StageRetrain = "retrain"
)

// DefaultStages is the full curriculum run when a spec omits "stages".
var DefaultStages = []string{
	StageTrain, StageAudit, StageMitigate, StageReaudit,
	StagePrivatize, StageRetrain, StageReaudit,
}

// Spec is the JSON body of POST /v1/pipelines: the dataset to remediate
// (by registry ref — pipelines never ship data inline), the training
// spec, the mitigation and privacy knobs, and the stage list.
type Spec struct {
	// Tenant is the submitting tenant's id; the X-RDS-Tenant header,
	// validated at the edge, takes precedence.
	Tenant string `json:"tenant,omitempty"`
	// Name labels the run (default "pipeline").
	Name string `json:"name,omitempty"`
	// DatasetRef is the content hash of a resident dataset (POST
	// /v1/datasets). Required: the ref pins the exact bytes every stage
	// — and every post-restart replay — computes over.
	DatasetRef string `json:"dataset_ref"`

	// Target is the binary label column (default "approved").
	Target string `json:"target,omitempty"`
	// Sensitive is the sensitive-attribute column (default "group").
	Sensitive string `json:"sensitive,omitempty"`
	// Protected is the protected group value (default "B").
	Protected string `json:"protected,omitempty"`
	// Reference is the reference group value (default "A").
	Reference string `json:"reference,omitempty"`
	// Exclude lists additional columns kept out of the features.
	Exclude []string `json:"exclude,omitempty"`
	// TestFraction is the held-out fraction (default 0.3).
	TestFraction float64 `json:"test_fraction,omitempty"`
	// Epochs caps the logistic fit's Newton iterations (default 40).
	// The fit converges in a handful, so only a cap below that changes
	// the model.
	Epochs int `json:"epochs,omitempty"`

	// Mitigation is the fairness intervention the mitigate stage (and
	// every later training stage) applies: "reweigh" (default) or
	// "threshold".
	Mitigation string `json:"mitigation,omitempty"`
	// Epsilon is the per-individual randomized-response budget of the
	// ldp-privatize stage (default 1.0).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Seed drives every stochastic step (default 1). With the pinned
	// dataset_ref it makes the whole run — and its post-restart replay —
	// deterministic.
	Seed uint64 `json:"seed,omitempty"`

	// Stages is the ordered stage list (default DefaultStages).
	Stages []string `json:"stages,omitempty"`
	// Policy holds the FACT thresholds audits grade against (default
	// serve.DefaultPolicy).
	Policy *policy.FACTPolicy `json:"policy,omitempty"`
}

// withDefaults returns the spec with every omitted knob resolved, or an
// error for an invalid stage list.
func (s Spec) withDefaults() (Spec, error) {
	if s.DatasetRef == "" {
		return s, fmt.Errorf("pipeline: spec needs dataset_ref (upload via POST /v1/datasets first)")
	}
	if s.Name == "" {
		s.Name = "pipeline"
	}
	cols := core.TrainSpec{Target: s.Target, Sensitive: s.Sensitive, Protected: s.Protected, Reference: s.Reference}.WithDefaultColumns()
	s.Target, s.Sensitive, s.Protected, s.Reference = cols.Target, cols.Sensitive, cols.Protected, cols.Reference
	if s.Mitigation == "" {
		s.Mitigation = "reweigh"
	}
	if _, err := core.ParseMitigation(s.Mitigation); err != nil {
		return s, err
	}
	if s.Epsilon == 0 {
		s.Epsilon = 1.0
	}
	if s.Epsilon < 0 {
		return s, fmt.Errorf("pipeline: epsilon %v negative", s.Epsilon)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if len(s.Stages) == 0 {
		s.Stages = append([]string(nil), DefaultStages...)
	}
	trained := false
	for i, name := range s.Stages {
		switch name {
		case StageTrain, StageMitigate, StageRetrain:
			trained = true
		case StageAudit, StageReaudit:
			if !trained {
				return s, fmt.Errorf("pipeline: stage %d (%q) audits before any training stage", i, name)
			}
		case StagePrivatize:
			// Position-free: privatizing before training is legal (the
			// curriculum's "private classifier" trains on noisy data).
		default:
			return s, fmt.Errorf("pipeline: unknown stage %q (want %v)", name, DefaultStages)
		}
	}
	if pol := s.Policy; pol != nil {
		if err := pol.Validate(); err != nil {
			return s, err
		}
	}
	return s, nil
}

// policyOrDefault resolves the grading policy.
func (s Spec) policyOrDefault() policy.FACTPolicy {
	if s.Policy != nil {
		return *s.Policy
	}
	return serve.DefaultPolicy()
}

// trainSpec renders the core training spec with the given mitigation
// and optional auditor's true-attribute column.
func (s Spec) trainSpec(mit core.Mitigation, trueCol string) core.TrainSpec {
	return core.TrainSpec{
		Target:       s.Target,
		Sensitive:    s.Sensitive,
		Protected:    s.Protected,
		Reference:    s.Reference,
		Exclude:      s.Exclude,
		TestFraction: s.TestFraction,
		Mitigation:   mit,
		Epochs:       s.Epochs,
		TrueGroups:   trueCol,
	}
}

// StageRecord is one completed stage in a pipeline's persisted record:
// the irreducible facts (which stage, what it reported) from which the
// in-memory artifacts are rebuilt by deterministic replay.
type StageRecord struct {
	Index         int             `json:"index"`
	Stage         string          `json:"stage"`
	Kind          string          `json:"kind"`
	Status        serve.Status    `json:"status"`
	ElapsedMillis float64         `json:"elapsed_millis"`
	Detail        json.RawMessage `json:"detail,omitempty"`
	Error         string          `json:"error,omitempty"`
}

// Record is one pipeline run's durable state and the JSON body of
// GET /v1/pipelines/{id}: the normalized spec plus every completed
// stage's result. It is written before the run becomes visible and
// after every stage, so at any kill point the store holds exactly the
// stages that finished.
type Record struct {
	ID     string       `json:"id"`
	Tenant string       `json:"tenant"`
	Spec   Spec         `json:"spec"`
	Status serve.Status `json:"status"`
	// Stages holds the completed stages, oldest first.
	Stages []StageRecord `json:"stages"`
	Error  string        `json:"error,omitempty"`
	// ElapsedMillis is submit-to-finish latency once the run ends.
	ElapsedMillis float64 `json:"elapsed_millis,omitempty"`
	// Resumed counts how many times a restart re-entered this run.
	Resumed int `json:"resumed,omitempty"`
}

// clone deep-copies the record so registry internals never alias
// HTTP-rendered state.
func (r *Record) clone() *Record {
	out := *r
	out.Spec.Stages = append([]string(nil), r.Spec.Stages...)
	out.Spec.Exclude = append([]string(nil), r.Spec.Exclude...)
	out.Stages = make([]StageRecord, len(r.Stages))
	for i, s := range r.Stages {
		s.Detail = append(json.RawMessage(nil), s.Detail...)
		out.Stages[i] = s
	}
	return &out
}

// TrainDetail is the typed result of train/retrain stages.
type TrainDetail struct {
	Mitigation string  `json:"mitigation"`
	Accuracy   float64 `json:"accuracy"`
	AUC        float64 `json:"auc"`
	// Privatized marks models fit after ldp-privatize ran.
	Privatized bool `json:"privatized"`
}

// AuditDetail is the typed result of audit/re-audit stages: the FACT
// grades up front, the full report attached.
type AuditDetail struct {
	Overall         policy.Grade `json:"overall"`
	DisparateImpact float64      `json:"disparate_impact"`
	Accuracy        float64      `json:"accuracy"`
	EpsSpent        float64      `json:"eps_spent"`
	// TrueGroups marks audits grouped by the auditor's ground-truth
	// attribute rather than the (privatized) sensitive column.
	TrueGroups bool             `json:"true_groups,omitempty"`
	Report     *core.FACTReport `json:"report"`
}

// MitigateDetail is the typed result of the mitigate stage: the model
// metrics plus the deltas against the model it replaced.
type MitigateDetail struct {
	Mitigation string  `json:"mitigation"`
	Accuracy   float64 `json:"accuracy"`
	AUC        float64 `json:"auc"`
	// AccuracyDelta/AUCDelta are vs the previous trained model (0 when
	// mitigate ran first).
	AccuracyDelta float64 `json:"accuracy_delta"`
	AUCDelta      float64 `json:"auc_delta"`
}

// PrivatizeDetail is the typed result of the ldp-privatize stage.
type PrivatizeDetail struct {
	Column string `json:"column"`
	// TrueColumn is where the pre-noise values were preserved for the
	// auditor ("<column>__true", excluded from features).
	TrueColumn string `json:"true_column"`
	// Epsilon is the per-individual randomized-response budget and
	// EpsSpent the accountant's running total after this stage.
	Epsilon  float64 `json:"epsilon"`
	EpsSpent float64 `json:"eps_spent"`
	// KeepProbability is e^eps/(1+e^eps); FlippedFraction the realized
	// flip rate over the column.
	KeepProbability float64 `json:"keep_probability"`
	FlippedFraction float64 `json:"flipped_fraction"`
}
