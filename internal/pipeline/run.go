package pipeline

import (
	"context"
	"fmt"
	"math"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/privacy"
	"github.com/responsible-data-science/rds/internal/rng"
	"github.com/responsible-data-science/rds/internal/serve"
)

// runState is one pipeline run's in-memory working state: the core
// pipeline (frame, lineage, rng), the current model, and the privacy
// accountant. None of it is persisted — every field is a deterministic
// function of (dataset bytes, normalized spec), pinned by dataset_ref
// and seed, so a restart rebuilds it by replaying the completed stages'
// compute (see ensureReady). Stages run strictly sequentially (the
// engine schedules one stage of a task at a time, with happens-before
// edges through the scheduler), so no locking is needed.
type runState struct {
	spec Spec
	base *frame.Frame
	// trainSpec is the resolved training spec; its Mitigation is the
	// one the mitigate stage applies.
	trainSpec core.TrainSpec

	pipe   *core.Pipeline
	src    *rng.Source // drives randomized response; split off the seed
	budget *privacy.Budget

	model      *core.TrainedModel
	mitigation core.Mitigation // applied by mitigate; inherited by retrain
	trueCol    string          // set once ldp-privatize ran
	// replay lists stage names completed in a previous process life,
	// to be re-executed (results discarded) before the first live stage.
	replay []string
}

// newRunState builds the state for a run whose first len(replay) stages
// completed in a previous process life (empty for fresh runs).
func newRunState(spec Spec, base *frame.Frame, replay []string) *runState {
	return &runState{spec: spec, base: base, replay: replay}
}

// init builds the core pipeline, loads the pinned dataset, and attaches
// the privacy accountant. Called lazily from the first executing stage
// so construction cost lands on a worker, not the submit path.
func (rs *runState) init() error {
	train, pol, err := rs.spec.Resolve()
	if err != nil {
		return err
	}
	train.Exclude = rs.spec.Exclude
	rs.trainSpec = train
	pipe, err := core.New(core.Config{
		Name:   rs.spec.Name,
		Policy: pol,
		Seed:   rs.spec.Seed,
		Actor:  "rds-pipeline",
	})
	if err != nil {
		return err
	}
	// A registry ref is the frame's content hash, so the load records it
	// instead of hashing the resident frame again.
	if err := pipe.LoadHashed(rs.spec.DatasetRef, rs.base, rs.spec.DatasetRef); err != nil {
		return err
	}
	// The accountant's ceiling is the policy's epsilon cap when the
	// policy sets one — a spec asking for more than the policy allows
	// fails the privatize stage instead of silently overspending.
	maxEps := pol.MaxEpsilon
	if maxEps <= 0 {
		maxEps = rs.spec.Epsilon
	}
	if maxEps > 0 {
		b, err := privacy.NewBudget(maxEps, 0)
		if err != nil {
			return err
		}
		rs.budget = b
		pipe.AttachBudget(b)
	}
	rs.pipe = pipe
	rs.src = rng.New(rs.spec.Seed)
	return nil
}

// ensureReady initializes the run on first use and replays any stages
// completed before a restart. Every stage body is deterministic in
// (dataset, spec, seed) and consumes randomness in stage order, so the
// replayed compute reconstructs the exact pre-kill model, frame, and
// accountant — the persisted record supplies the history; replay
// supplies the artifacts.
func (rs *runState) ensureReady(ctx context.Context) error {
	if rs.pipe != nil {
		return nil
	}
	if err := rs.init(); err != nil {
		return err
	}
	for i, name := range rs.replay {
		if _, err := rs.runStage(ctx, name); err != nil {
			return fmt.Errorf("pipeline: replaying completed stage %d (%q): %w", i, name, err)
		}
	}
	return nil
}

// runStage executes one named stage against the current state and
// returns its typed detail.
func (rs *runState) runStage(ctx context.Context, name string) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch name {
	case StageTrain:
		return rs.train(core.MitigateNone)
	case StageRetrain:
		return rs.train(rs.mitigation)
	case StageMitigate:
		return rs.mitigate()
	case StageAudit, StageReaudit:
		return rs.audit()
	case StagePrivatize:
		return rs.privatize()
	}
	return nil, fmt.Errorf("pipeline: unknown stage %q", name)
}

// fit trains the current working frame under mit; once ldp-privatize
// ran, the audit groups by the preserved true attribute.
func (rs *runState) fit(mit core.Mitigation) (*core.TrainedModel, error) {
	spec := rs.trainSpec
	spec.Mitigation = mit
	spec.TrueGroups = rs.trueCol
	return rs.pipe.Train(spec)
}

func (rs *runState) train(mit core.Mitigation) (any, error) {
	tm, err := rs.fit(mit)
	if err != nil {
		return nil, err
	}
	rs.model = tm
	return &TrainDetail{
		Mitigation: mit.String(),
		Accuracy:   tm.Accuracy,
		AUC:        tm.AUC,
		Privatized: rs.trueCol != "",
	}, nil
}

func (rs *runState) mitigate() (any, error) {
	mit := rs.trainSpec.Mitigation
	prev := rs.model
	tm, err := rs.fit(mit)
	if err != nil {
		return nil, err
	}
	rs.model = tm
	rs.mitigation = mit
	d := &MitigateDetail{Mitigation: mit.String(), Accuracy: tm.Accuracy, AUC: tm.AUC}
	if prev != nil {
		d.AccuracyDelta = tm.Accuracy - prev.Accuracy
		d.AUCDelta = tm.AUC - prev.AUC
	}
	return d, nil
}

func (rs *runState) audit() (any, error) {
	if rs.model == nil {
		return nil, fmt.Errorf("pipeline: audit before any training stage")
	}
	rep, err := rs.pipe.Audit(rs.model)
	if err != nil {
		return nil, err
	}
	return &AuditDetail{
		Overall:         rep.Overall,
		DisparateImpact: rep.Fairness.Report.DisparateImpact,
		Accuracy:        rep.Accuracy.Accuracy,
		EpsSpent:        rep.Confidentiality.EpsSpent,
		TrueGroups:      rs.trueCol != "",
		Report:          rep,
	}, nil
}

// privatize applies binary randomized response to the sensitive column
// — each row's group membership is kept with probability
// e^eps/(1+e^eps), flipped otherwise — and preserves the true values in
// "<sensitive>__true" for the auditor. Epsilon is charged to the
// accountant once: under local DP each individual's bit is randomized
// independently, so the per-individual guarantee (what the accountant
// tracks) is eps, not n·eps. Later training stages see only the noisy
// attribute; later audits group by the preserved truth.
func (rs *runState) privatize() (any, error) {
	if rs.trueCol != "" {
		return nil, fmt.Errorf("pipeline: column %q already privatized", rs.spec.Sensitive)
	}
	col := rs.spec.Sensitive
	eps := rs.spec.Epsilon
	label := "ldp-privatize(" + col + ")"
	if err := rs.budget.Spend(label, eps, 0); err != nil {
		return nil, err
	}
	keep := math.Exp(eps) / (1 + math.Exp(eps))
	trueCol := col + "__true"
	flipped := 0
	err := rs.pipe.Transform(label, func(f *frame.Frame) (*frame.Frame, error) {
		s, err := f.Col(col)
		if err != nil {
			return nil, err
		}
		if f.Has(trueCol) {
			return nil, fmt.Errorf("pipeline: column %q already exists", trueCol)
		}
		vals := s.Strings()
		noisy := make([]string, len(vals))
		for i, v := range vals {
			isProt := v == rs.spec.Protected
			out := isProt
			if !rs.src.Bernoulli(keep) {
				out = !out
				flipped++
			}
			if out {
				noisy[i] = rs.spec.Protected
			} else {
				noisy[i] = rs.spec.Reference
			}
		}
		f2, err := f.WithColumn(s.Rename(trueCol))
		if err != nil {
			return nil, err
		}
		return f2.WithColumn(frame.NewString(col, noisy).Intern())
	})
	if err != nil {
		return nil, err
	}
	rs.trueCol = trueCol
	spent, _ := rs.budget.Spent()
	n := rs.pipe.Frame().NumRows()
	d := &PrivatizeDetail{
		Column:          col,
		TrueColumn:      trueCol,
		Epsilon:         eps,
		EpsSpent:        spent,
		KeepProbability: keep,
	}
	if n > 0 {
		d.FlippedFraction = float64(flipped) / float64(n)
	}
	return d, nil
}

// stages renders the run's remaining stage names as serve stages, all
// under the pipeline admission class.
func (rs *runState) stages(names []string) []serve.Stage {
	out := make([]serve.Stage, len(names))
	for i, name := range names {
		name := name
		out[i] = serve.Stage{
			Name: name,
			Kind: serve.ClassPipeline,
			Run: func(ctx context.Context) (any, error) {
				if err := rs.ensureReady(ctx); err != nil {
					return nil, err
				}
				return rs.runStage(ctx, name)
			},
		}
	}
	return out
}
