package core

import (
	"fmt"
	"strings"

	"github.com/responsible-data-science/rds/internal/explain"
	"github.com/responsible-data-science/rds/internal/fairness"
	"github.com/responsible-data-science/rds/internal/policy"
	"github.com/responsible-data-science/rds/internal/stats"
)

// FACTReport is the pipeline's compliance report: one section per FACT
// dimension plus governance, with traffic-light findings evaluated
// against the pipeline's policy. The JSON form is what the audit service
// (internal/serve, cmd/rds-serve) returns to clients.
type FACTReport struct {
	Pipeline string `json:"pipeline"`

	Fairness        FairnessSection        `json:"fairness"`
	Accuracy        AccuracySection        `json:"accuracy"`
	Confidentiality ConfidentialitySection `json:"confidentiality"`
	Transparency    TransparencySection    `json:"transparency"`

	Findings []policy.Finding `json:"findings"`
	Overall  policy.Grade     `json:"overall"`
}

// FairnessSection carries the measured group-fairness outcome.
type FairnessSection struct {
	Report fairness.Report `json:"report"`
}

// AccuracySection carries accuracy with its interval and the corrected
// hypothesis decisions.
type AccuracySection struct {
	Accuracy   float64                `json:"accuracy"`
	AccuracyCI stats.Interval         `json:"accuracy_ci"`
	TestsRun   int                    `json:"tests_run"`
	Corrected  []stats.LedgerDecision `json:"corrected,omitempty"`
}

// ConfidentialitySection reports budget consumption and any micro-data
// release quality.
type ConfidentialitySection struct {
	BudgetAttached bool    `json:"budget_attached"`
	EpsSpent       float64 `json:"eps_spent"`
	EpsTotalCap    float64 `json:"eps_total_cap"`
	ReleaseMinK    int     `json:"release_min_k"` // 0 when no release happened
}

// TransparencySection reports lineage size, audit-chain integrity, and
// explanation fidelity.
type TransparencySection struct {
	LineageNodes      int     `json:"lineage_nodes"`
	AuditIntact       bool    `json:"audit_intact"`
	SurrogateFidelity float64 `json:"surrogate_fidelity"`
	CardValid         bool    `json:"card_valid"`
}

// Audit evaluates the trained model and the pipeline state against the
// policy and produces the FACT report.
func (p *Pipeline) Audit(tm *TrainedModel) (*FACTReport, error) {
	if tm == nil {
		return nil, fmt.Errorf("core: Audit needs a trained model")
	}
	pol := p.cfg.Policy
	rep := &FACTReport{Pipeline: p.cfg.Name}

	// --- Fairness (Q1). The group column keeps its dictionary
	// encoding, so the kernel tallies by code; cfg.Shards only changes
	// wall-clock time, never the metrics.
	fr, err := fairness.EvaluateSeriesSharded(tm.Test.Y, tm.TestPreds, tm.TestGroupCol, tm.Spec.Protected, tm.Spec.Reference, p.cfg.Shards)
	if err != nil {
		return nil, fmt.Errorf("core: fairness evaluation: %w", err)
	}
	rep.Fairness.Report = fr
	if pol.MinDisparateImpact > 0 {
		switch {
		case fr.DisparateImpact >= pol.MinDisparateImpact:
			rep.add("fairness", policy.Green,
				fmt.Sprintf("disparate impact %.3f meets floor %.2f", fr.DisparateImpact, pol.MinDisparateImpact))
		case fr.DisparateImpact >= pol.MinDisparateImpact-0.05:
			rep.add("fairness", policy.Amber,
				fmt.Sprintf("disparate impact %.3f within 0.05 of floor %.2f", fr.DisparateImpact, pol.MinDisparateImpact))
		default:
			rep.add("fairness", policy.Red,
				fmt.Sprintf("disparate impact %.3f below floor %.2f", fr.DisparateImpact, pol.MinDisparateImpact))
		}
	}
	if pol.MaxEqOppDifference > 0 {
		eod := fr.EqualOpportunityDifference
		if eod < 0 {
			eod = -eod
		}
		if eod <= pol.MaxEqOppDifference {
			rep.add("fairness", policy.Green,
				fmt.Sprintf("equal-opportunity gap %.3f within %.2f", eod, pol.MaxEqOppDifference))
		} else {
			rep.add("fairness", policy.Red,
				fmt.Sprintf("equal-opportunity gap %.3f exceeds %.2f", eod, pol.MaxEqOppDifference))
		}
	}

	// --- Accuracy (Q2).
	rep.Accuracy.Accuracy = tm.Accuracy
	ci, err := stats.WilsonCI(tm.Correct, tm.Test.N(), 0.95)
	if err != nil {
		return nil, fmt.Errorf("core: accuracy interval: %w", err)
	}
	rep.Accuracy.AccuracyCI = ci
	if pol.RequireIntervals {
		rep.add("accuracy", policy.Green,
			fmt.Sprintf("accuracy %.4f with 95%% CI [%.4f, %.4f] (n=%d)", tm.Accuracy, ci.Lower, ci.Upper, tm.Test.N()))
	}
	rep.Accuracy.TestsRun = p.ledger.Len()
	if p.ledger.Len() > 0 {
		method, ok := correctionByName(pol.Correction)
		switch {
		case pol.Correction == "" && p.ledger.Len() > pol.MaxUncorrectedTests:
			rep.add("accuracy", policy.Red,
				fmt.Sprintf("%d hypotheses tested with no correction policy (limit %d)", p.ledger.Len(), pol.MaxUncorrectedTests))
		case pol.Correction != "" && !ok:
			rep.add("accuracy", policy.Red,
				fmt.Sprintf("unknown correction %q in policy", pol.Correction))
		case ok:
			decisions, err := p.ledger.Decide(method, 0.05)
			if err != nil {
				return nil, fmt.Errorf("core: correcting hypotheses: %w", err)
			}
			rep.Accuracy.Corrected = decisions
			survived := 0
			for _, d := range decisions {
				if d.Rejected {
					survived++
				}
			}
			rep.add("accuracy", policy.Green,
				fmt.Sprintf("%d hypotheses corrected with %s; %d significant", len(decisions), pol.Correction, survived))
		}
	}

	// --- Confidentiality (Q3).
	rep.Confidentiality.EpsTotalCap = pol.MaxEpsilon
	if p.budget != nil {
		rep.Confidentiality.BudgetAttached = true
		spent, _ := p.budget.Spent()
		rep.Confidentiality.EpsSpent = spent
		if pol.MaxEpsilon > 0 {
			if spent <= pol.MaxEpsilon {
				rep.add("confidentiality", policy.Green,
					fmt.Sprintf("privacy budget spent %.3f within cap %.2f", spent, pol.MaxEpsilon))
			} else {
				rep.add("confidentiality", policy.Red,
					fmt.Sprintf("privacy budget spent %.3f exceeds cap %.2f", spent, pol.MaxEpsilon))
			}
		}
	} else if pol.MaxEpsilon > 0 {
		rep.add("confidentiality", policy.Amber, "policy caps epsilon but no budget accountant is attached")
	}
	if pol.MinKAnonymity > 0 {
		if p.release == nil {
			rep.add("confidentiality", policy.Amber,
				fmt.Sprintf("policy requires %d-anonymous releases; none recorded", pol.MinKAnonymity))
		} else {
			rep.Confidentiality.ReleaseMinK = p.release.MinClassSize
			if p.release.MinClassSize >= pol.MinKAnonymity {
				rep.add("confidentiality", policy.Green,
					fmt.Sprintf("release min class %d meets k=%d", p.release.MinClassSize, pol.MinKAnonymity))
			} else {
				rep.add("confidentiality", policy.Red,
					fmt.Sprintf("release min class %d below k=%d", p.release.MinClassSize, pol.MinKAnonymity))
			}
		}
	}

	// --- Transparency (Q4).
	rep.Transparency.LineageNodes = p.graph.Len()
	rep.Transparency.AuditIntact = p.audit.Verify() == -1
	if pol.RequireLineage {
		if p.graph.Len() >= 2 && rep.Transparency.AuditIntact {
			rep.add("transparency", policy.Green,
				fmt.Sprintf("lineage has %d nodes; audit chain intact", p.graph.Len()))
		} else {
			rep.add("transparency", policy.Red, "lineage missing or audit chain broken")
		}
	}
	if pol.RequireModelCard {
		if err := tm.Card.Validate(); err == nil {
			rep.Transparency.CardValid = true
			rep.add("transparency", policy.Green, "model card complete")
		} else {
			rep.add("transparency", policy.Red, err.Error())
		}
	}
	if pol.MinSurrogateFidelity > 0 {
		sur, err := explain.FitSurrogate(tm.Model, tm.Test, 4)
		if err != nil {
			return nil, fmt.Errorf("core: surrogate: %w", err)
		}
		rep.Transparency.SurrogateFidelity = sur.Fidelity
		if sur.Fidelity >= pol.MinSurrogateFidelity {
			rep.add("transparency", policy.Green,
				fmt.Sprintf("surrogate fidelity %.3f meets floor %.2f", sur.Fidelity, pol.MinSurrogateFidelity))
		} else {
			rep.add("transparency", policy.Amber,
				fmt.Sprintf("surrogate fidelity %.3f below floor %.2f", sur.Fidelity, pol.MinSurrogateFidelity))
		}
	}

	// --- Governance.
	if p.consent != nil {
		rep.add("governance", policy.Green,
			fmt.Sprintf("consent enforced for purpose %q (%d rows denied)", pol.RequiredPurpose, p.deniedRows))
	}

	rep.Overall = policy.WorstGrade(rep.Findings)
	p.audit.Append(p.cfg.Actor, "audit", p.cfg.Name, fmt.Sprintf("overall=%s findings=%d", rep.Overall, len(rep.Findings)))
	return rep, nil
}

func (r *FACTReport) add(dim string, g policy.Grade, msg string) {
	r.Findings = append(r.Findings, policy.Finding{Dimension: dim, Grade: g, Message: msg})
}

func correctionByName(name string) (stats.Correction, bool) {
	switch name {
	case "bonferroni":
		return stats.Bonferroni, true
	case "holm":
		return stats.Holm, true
	case "benjamini-hochberg":
		return stats.BenjaminiHochberg, true
	case "benjamini-yekutieli":
		return stats.BenjaminiYekutieli, true
	default:
		return stats.NoCorrection, false
	}
}

// Render formats the report for humans.
func (r *FACTReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FACT report for pipeline %q — overall %s\n", r.Pipeline, r.Overall)
	fmt.Fprintf(&b, "  fairness: DI=%.3f SPD=%+.3f EOD=%+.3f (protected %s n=%d, reference %s n=%d)\n",
		r.Fairness.Report.DisparateImpact,
		r.Fairness.Report.StatisticalParityDifference,
		r.Fairness.Report.EqualOpportunityDifference,
		r.Fairness.Report.Protected.Group, r.Fairness.Report.Protected.N,
		r.Fairness.Report.Reference.Group, r.Fairness.Report.Reference.N)
	fmt.Fprintf(&b, "  accuracy: %.4f %s; %d hypotheses recorded\n",
		r.Accuracy.Accuracy, r.Accuracy.AccuracyCI, r.Accuracy.TestsRun)
	if r.Confidentiality.BudgetAttached {
		fmt.Fprintf(&b, "  confidentiality: eps spent %.3f (cap %.2f)",
			r.Confidentiality.EpsSpent, r.Confidentiality.EpsTotalCap)
		if r.Confidentiality.ReleaseMinK > 0 {
			fmt.Fprintf(&b, "; release min class %d", r.Confidentiality.ReleaseMinK)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  transparency: %d lineage nodes, audit intact=%v, surrogate fidelity %.3f\n",
		r.Transparency.LineageNodes, r.Transparency.AuditIntact, r.Transparency.SurrogateFidelity)
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  [%s] %-15s %s\n", f.Grade, f.Dimension+":", f.Message)
	}
	return b.String()
}
