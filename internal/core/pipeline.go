// Package core implements the paper's envisioned system: a data-science
// pipeline that is responsible *by design*. A Pipeline carries, alongside
// the data, the four FACT safeguards as first-class machinery:
//
//   - Fairness: group metrics evaluated on every trained model, with
//     optional mitigation built into training (FACT Q1).
//   - Accuracy: every estimate ships with a confidence interval, and all
//     hypothesis tests flow through a ledger that enforces
//     multiple-testing correction (FACT Q2).
//   - Confidentiality: consent-based row filtering before any processing
//     and a privacy-budget accountant for every DP release (FACT Q3).
//   - Transparency: every step appends to a lineage DAG and a
//     hash-chained audit log; models carry cards and are explained by
//     measured-fidelity surrogates (FACT Q4).
//
// Audit evaluates the pipeline against a declarative policy.FACTPolicy
// and grades each dimension Green/Amber/Red — the "green data science"
// gauge of Section 3.
package core

import (
	"fmt"

	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/policy"
	"github.com/responsible-data-science/rds/internal/privacy"
	"github.com/responsible-data-science/rds/internal/provenance"
	"github.com/responsible-data-science/rds/internal/rng"
	"github.com/responsible-data-science/rds/internal/stats"
)

// Config parameterizes a pipeline.
type Config struct {
	Name   string
	Policy policy.FACTPolicy
	Seed   uint64 // drives every stochastic step; recorded in provenance
	Actor  string // who runs the pipeline (audit log attribution)
	// Shards is the shard count of Audit's fairness scan
	// (internal/exec); 0, what the service's audit planes pass, selects
	// runtime.GOMAXPROCS. Audit results are shard-invariant: Shards
	// changes wall-clock time, never the report.
	Shards int
}

// Pipeline is a responsible-by-design data-science pipeline.
type Pipeline struct {
	cfg        Config
	data       *frame.Frame
	graph      *provenance.Graph
	audit      *provenance.AuditLog
	ledger     *stats.HypothesisLedger
	budget     *privacy.Budget
	consent    *policy.ConsentLedger
	subjectCol string
	release    *privacy.AnonymizeResult // last published micro-data, if any
	deniedRows int
	stage      int
	lastNode   string
	src        *rng.Source
}

// New creates a pipeline with the given configuration.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("core: pipeline needs a name")
	}
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Actor == "" {
		cfg.Actor = "pipeline"
	}
	return &Pipeline{
		cfg:    cfg,
		graph:  provenance.NewGraph(),
		audit:  provenance.NewAuditLog(),
		ledger: &stats.HypothesisLedger{},
		src:    rng.New(cfg.Seed),
	}, nil
}

// AttachConsent wires a consent ledger; Load will then drop rows whose
// subject (named column) has not consented to the policy's purpose, and
// rows of erased subjects.
func (p *Pipeline) AttachConsent(ledger *policy.ConsentLedger, subjectColumn string) {
	p.consent = ledger
	p.subjectCol = subjectColumn
}

// AttachBudget wires a privacy-budget accountant. DP releases made
// through the pipeline (or by callers sharing the budget) are then
// visible to Audit.
func (p *Pipeline) AttachBudget(b *privacy.Budget) { p.budget = b }

// Budget returns the attached accountant (nil if none).
func (p *Pipeline) Budget() *privacy.Budget { return p.budget }

// Lineage returns the provenance graph.
func (p *Pipeline) Lineage() *provenance.Graph { return p.graph }

// AuditLog returns the hash-chained event log.
func (p *Pipeline) AuditLog() *provenance.AuditLog { return p.audit }

// Ledger returns the hypothesis ledger.
func (p *Pipeline) Ledger() *stats.HypothesisLedger { return p.ledger }

// Frame returns the current working data.
func (p *Pipeline) Frame() *frame.Frame { return p.data }

// DeniedRows reports how many rows consent filtering removed.
func (p *Pipeline) DeniedRows() int { return p.deniedRows }

// Load ingests a frame as the pipeline's working data, applying consent
// filtering when a ledger is attached, and records provenance.
func (p *Pipeline) Load(name string, f *frame.Frame) error {
	return p.LoadHashed(name, f, "")
}

// LoadHashed is Load for a caller that already holds f.Hash(), such as
// a report-cache key or a dataset ref: provenance records hash instead
// of hashing f again. An empty hash, or a load that consent filtering
// applies to, hashes the working frame as Load does.
func (p *Pipeline) LoadHashed(name string, f *frame.Frame, hash string) error {
	if f == nil || f.NumRows() == 0 {
		return fmt.Errorf("core: Load %q: empty frame", name)
	}
	working := f
	if p.consent != nil {
		if p.cfg.Policy.RequiredPurpose == "" {
			return fmt.Errorf("core: consent ledger attached but policy has no RequiredPurpose")
		}
		col, err := f.Col(p.subjectCol)
		if err != nil {
			return fmt.Errorf("core: consent filtering: %w", err)
		}
		before := f.NumRows()
		working = f.Filter(func(i int) bool {
			return !col.IsNull(i) && p.consent.HasConsent(col.Str(i), p.cfg.Policy.RequiredPurpose)
		})
		p.deniedRows = before - working.NumRows()
		if working.NumRows() == 0 {
			return fmt.Errorf("core: consent filtering removed every row (purpose %q)", p.cfg.Policy.RequiredPurpose)
		}
	}
	if hash == "" || working != f {
		var err error
		if hash, err = provenance.HashFrame(working); err != nil {
			return err
		}
	}
	id := p.nextID("load")
	if _, err := p.graph.Add(id, provenance.KindDataset, name, hash, nil, map[string]string{
		"rows": fmt.Sprintf("%d", working.NumRows()),
		"seed": fmt.Sprintf("%d", p.cfg.Seed),
	}); err != nil {
		return err
	}
	p.audit.Append(p.cfg.Actor, "load", name,
		fmt.Sprintf("rows=%d denied=%d", working.NumRows(), p.deniedRows))
	p.data = working
	p.lastNode = id
	return nil
}

// Transform applies fn to the working frame as a recorded pipeline step.
func (p *Pipeline) Transform(name string, fn func(*frame.Frame) (*frame.Frame, error)) error {
	if p.data == nil {
		return fmt.Errorf("core: Transform %q before Load", name)
	}
	out, err := fn(p.data)
	if err != nil {
		p.audit.Append(p.cfg.Actor, "transform-failed", name, err.Error())
		return fmt.Errorf("core: transform %q: %w", name, err)
	}
	if out == nil || out.NumRows() == 0 {
		return fmt.Errorf("core: transform %q produced an empty frame", name)
	}
	hash, err := provenance.HashFrame(out)
	if err != nil {
		return err
	}
	id := p.nextID("transform")
	if _, err := p.graph.Add(id, provenance.KindTransform, name, hash, []string{p.lastNode}, nil); err != nil {
		return err
	}
	p.audit.Append(p.cfg.Actor, "transform", name, fmt.Sprintf("rows=%d", out.NumRows()))
	p.data = out
	p.lastNode = id
	return nil
}

// RecordHypothesis logs one hypothesis test (name, p-value) with the
// pipeline's ledger, so Audit can enforce correction.
func (p *Pipeline) RecordHypothesis(name string, pvalue float64) {
	p.ledger.Record(name, pvalue)
	p.audit.Append(p.cfg.Actor, "hypothesis", name, fmt.Sprintf("p=%.6g", pvalue))
}

// RecordRelease registers a k-anonymized micro-data publication so Audit
// can check it against the policy's MinKAnonymity.
func (p *Pipeline) RecordRelease(res *privacy.AnonymizeResult) {
	p.release = res
	id := p.nextID("release")
	hash, err := provenance.HashFrame(res.Data)
	if err != nil {
		hash = ""
	}
	_, _ = p.graph.Add(id, provenance.KindReport, "micro-data release", hash, p.inputsOrNone(), map[string]string{
		"min_class": fmt.Sprintf("%d", res.MinClassSize),
	})
	p.audit.Append(p.cfg.Actor, "release", "micro-data",
		fmt.Sprintf("classes=%d min_class=%d loss=%.3f", res.Classes, res.MinClassSize, res.InformationLoss))
}

func (p *Pipeline) inputsOrNone() []string {
	if p.lastNode == "" {
		return nil
	}
	return []string{p.lastNode}
}

func (p *Pipeline) nextID(kind string) string {
	p.stage++
	return fmt.Sprintf("%s-%02d-%s", p.cfg.Name, p.stage, kind)
}
