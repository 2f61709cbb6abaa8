package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/policy"
	"github.com/responsible-data-science/rds/internal/privacy"
	"github.com/responsible-data-science/rds/internal/rng"
	"github.com/responsible-data-science/rds/internal/synth"
)

func strictPolicy() policy.FACTPolicy {
	return policy.FACTPolicy{
		MinDisparateImpact:   0.8,
		MaxEqOppDifference:   0.1,
		RequireIntervals:     true,
		MaxUncorrectedTests:  1,
		Correction:           "holm",
		MaxEpsilon:           1.0,
		RequireLineage:       true,
		RequireModelCard:     true,
		MinSurrogateFidelity: 0.8,
	}
}

func newCreditPipeline(t *testing.T, bias float64, mitigation Mitigation) (*Pipeline, *TrainedModel) {
	t.Helper()
	p, err := New(Config{Name: "credit", Policy: strictPolicy(), Seed: 7, Actor: "test"})
	if err != nil {
		t.Fatal(err)
	}
	f, err := synth.Credit(synth.CreditConfig{N: 6000, Bias: bias, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Load("credit-synth", f); err != nil {
		t.Fatal(err)
	}
	tm, err := p.Train(TrainSpec{
		Target:     "approved",
		Sensitive:  "group",
		Protected:  "B",
		Reference:  "A",
		Mitigation: mitigation,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, tm
}

func TestPipelineEndToEndBiasedDataFailsAudit(t *testing.T) {
	p, tm := newCreditPipeline(t, 1.2, MitigateNone)
	rep, err := p.Audit(tm)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overall != policy.Red {
		t.Fatalf("biased unmitigated pipeline graded %s, want RED:\n%s", rep.Overall, rep.Render())
	}
	// Fairness must be the failing dimension.
	foundRed := false
	for _, f := range rep.Findings {
		if f.Dimension == "fairness" && f.Grade == policy.Red {
			foundRed = true
		}
	}
	if !foundRed {
		t.Fatalf("no red fairness finding:\n%s", rep.Render())
	}
}

func TestPipelineMitigationImprovesGrade(t *testing.T) {
	_, tmBase := newCreditPipeline(t, 1.2, MitigateNone)
	pMit, tmMit := newCreditPipeline(t, 1.2, MitigateThreshold)
	repMit, err := pMit.Audit(tmMit)
	if err != nil {
		t.Fatal(err)
	}
	baseDI := 0.0
	{
		pBase, _ := newCreditPipeline(t, 1.2, MitigateNone)
		repBase, err := pBase.Audit(tmBase)
		if err != nil {
			t.Fatal(err)
		}
		baseDI = repBase.Fairness.Report.DisparateImpact
	}
	if repMit.Fairness.Report.DisparateImpact <= baseDI {
		t.Fatalf("mitigation did not improve DI: %v -> %v", baseDI, repMit.Fairness.Report.DisparateImpact)
	}
	// Threshold mitigation targets demographic parity directly; DI must
	// now pass the four-fifths floor.
	if repMit.Fairness.Report.DisparateImpact < 0.8 {
		t.Fatalf("mitigated DI = %v, want >= 0.8", repMit.Fairness.Report.DisparateImpact)
	}
}

func TestPipelineFairDataPassesAudit(t *testing.T) {
	p, tm := newCreditPipeline(t, 0, MitigateReweigh)
	rep, err := p.Audit(tm)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overall == policy.Red {
		t.Fatalf("fair pipeline graded RED:\n%s", rep.Render())
	}
	if !rep.Transparency.AuditIntact {
		t.Fatal("audit chain broken")
	}
	if rep.Transparency.LineageNodes < 2 {
		t.Fatalf("lineage nodes = %d", rep.Transparency.LineageNodes)
	}
	if !rep.Accuracy.AccuracyCI.Contains(rep.Accuracy.Accuracy) {
		t.Fatal("accuracy outside its own CI")
	}
	out := rep.Render()
	for _, want := range []string{"FACT report", "fairness:", "accuracy:", "transparency:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestPipelineConsentFiltering(t *testing.T) {
	pol := strictPolicy()
	pol.RequiredPurpose = policy.PurposeResearch
	p, err := New(Config{Name: "consented", Policy: pol, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ledger := policy.NewConsentLedger()
	// Subjects s0..s99; only even ones consent.
	ids := make([]string, 100)
	vals := make([]float64, 100)
	labels := make([]int64, 100)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%d", i)
		vals[i] = float64(i)
		labels[i] = int64(i % 2)
		if i%2 == 0 {
			if err := ledger.Grant(ids[i], policy.PurposeResearch); err != nil {
				t.Fatal(err)
			}
		}
	}
	ledger.Erase("s0") // erased subject must also drop out
	p.AttachConsent(ledger, "subject")
	f := frame.MustNew(
		frame.NewString("subject", ids),
		frame.NewFloat64("x", vals),
		frame.NewInt64("y", labels),
	)
	if err := p.Load("survey", f); err != nil {
		t.Fatal(err)
	}
	if p.Frame().NumRows() != 49 { // 50 even minus erased s0
		t.Fatalf("rows after consent = %d, want 49", p.Frame().NumRows())
	}
	if p.DeniedRows() != 51 {
		t.Fatalf("denied = %d, want 51", p.DeniedRows())
	}
}

// TestLoadHashedRecordsHash checks that a hash handed to LoadHashed is
// what provenance records, and that a load consent filtering applies to
// hashes the filtered frame instead.
func TestLoadHashedRecordsHash(t *testing.T) {
	f := frame.MustNew(
		frame.NewString("subject", []string{"s0", "s1", "s2"}),
		frame.NewFloat64("x", []float64{1, 2, 3}),
	)
	loadHash := func(p *Pipeline) string {
		t.Helper()
		n, ok := p.Lineage().Get(p.lastNode)
		if !ok {
			t.Fatal("no load node in lineage")
		}
		return n.Hash
	}
	plain, err := New(Config{Name: "plain", Policy: strictPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.LoadHashed("d", f, "given"); err != nil {
		t.Fatal(err)
	}
	if got := loadHash(plain); got != "given" {
		t.Errorf("recorded hash %q, want the one handed in", got)
	}

	pol := strictPolicy()
	pol.RequiredPurpose = policy.PurposeResearch
	consented, err := New(Config{Name: "consented", Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	ledger := policy.NewConsentLedger()
	for _, id := range []string{"s0", "s2"} {
		if err := ledger.Grant(id, policy.PurposeResearch); err != nil {
			t.Fatal(err)
		}
	}
	consented.AttachConsent(ledger, "subject")
	if err := consented.LoadHashed("d", f, f.Hash()); err != nil {
		t.Fatal(err)
	}
	if got, want := loadHash(consented), consented.Frame().Hash(); got != want || got == f.Hash() {
		t.Errorf("consent-filtered load recorded %q, want the filtered frame's %q", got, want)
	}
}

func TestPipelineConsentRequiresPurpose(t *testing.T) {
	p, err := New(Config{Name: "x", Policy: policy.FACTPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	p.AttachConsent(policy.NewConsentLedger(), "subject")
	f := frame.MustNew(frame.NewString("subject", []string{"a"}))
	if err := p.Load("d", f); err == nil {
		t.Fatal("consent without purpose accepted")
	}
}

func TestPipelineTransform(t *testing.T) {
	p, err := New(Config{Name: "t", Policy: policy.FACTPolicy{}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := synth.Credit(synth.CreditConfig{N: 500, Seed: 13})
	if err := p.Load("credit", f); err != nil {
		t.Fatal(err)
	}
	if err := p.Transform("drop-latecomers", func(fr *frame.Frame) (*frame.Frame, error) {
		col := fr.MustCol("late_payments")
		return fr.Filter(func(i int) bool { return col.Int(i) < 3 }), nil
	}); err != nil {
		t.Fatal(err)
	}
	if p.Frame().NumRows() >= 500 {
		t.Fatal("transform did not filter")
	}
	if p.Lineage().Len() != 2 {
		t.Fatalf("lineage nodes = %d", p.Lineage().Len())
	}
	// Failing transform is recorded and surfaced.
	if err := p.Transform("boom", func(fr *frame.Frame) (*frame.Frame, error) {
		return nil, fmt.Errorf("synthetic failure")
	}); err == nil {
		t.Fatal("failing transform not surfaced")
	}
	if err := p.Transform("empty", func(fr *frame.Frame) (*frame.Frame, error) {
		return fr.Filter(func(int) bool { return false }), nil
	}); err == nil {
		t.Fatal("empty transform output accepted")
	}
}

func TestPipelineBudgetIntegration(t *testing.T) {
	pol := strictPolicy()
	p, tm := newCreditPipeline(t, 0, MitigateNone)
	b, err := privacy.NewBudget(pol.MaxEpsilon, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.AttachBudget(b)
	src := rng.New(9)
	if _, err := privacy.PrivateCount(b, "approved-count", 100, 0.5, src); err != nil {
		t.Fatal(err)
	}
	rep, err := p.Audit(tm)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Confidentiality.BudgetAttached || rep.Confidentiality.EpsSpent != 0.5 {
		t.Fatalf("budget section: %+v", rep.Confidentiality)
	}
	// Overspending relative to the cap turns the dimension red: new
	// pipeline with a tighter cap.
	pol2 := strictPolicy()
	pol2.MaxEpsilon = 0.1
	p2, err := New(Config{Name: "tight", Policy: pol2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := synth.Credit(synth.CreditConfig{N: 3000, Seed: 17})
	if err := p2.Load("credit", f); err != nil {
		t.Fatal(err)
	}
	tm2, err := p2.Train(TrainSpec{Target: "approved", Sensitive: "group", Protected: "B", Reference: "A"})
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := privacy.NewBudget(10, 0) // accountant allows more than policy cap
	p2.AttachBudget(b2)
	if _, err := privacy.PrivateCount(b2, "c", 10, 5.0, src); err != nil {
		t.Fatal(err)
	}
	rep2, err := p2.Audit(tm2)
	if err != nil {
		t.Fatal(err)
	}
	redConf := false
	for _, fd := range rep2.Findings {
		if fd.Dimension == "confidentiality" && fd.Grade == policy.Red {
			redConf = true
		}
	}
	if !redConf {
		t.Fatalf("cap overspend not red:\n%s", rep2.Render())
	}
}

func TestPipelineHypothesisLedgerInAudit(t *testing.T) {
	p, tm := newCreditPipeline(t, 0, MitigateNone)
	p.RecordHypothesis("h1", 0.001)
	p.RecordHypothesis("h2", 0.04)
	p.RecordHypothesis("h3", 0.04)
	rep, err := p.Audit(tm)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy.TestsRun != 3 || len(rep.Accuracy.Corrected) != 3 {
		t.Fatalf("ledger not audited: %+v", rep.Accuracy)
	}
	// Holm at 0.05: only h1 survives.
	survived := 0
	for _, d := range rep.Accuracy.Corrected {
		if d.Rejected {
			survived++
		}
	}
	if survived != 1 {
		t.Fatalf("survived = %d, want 1", survived)
	}
}

func TestPipelineUncorrectedTestsGoRed(t *testing.T) {
	pol := strictPolicy()
	pol.Correction = "" // no correction mandated
	pol.MaxUncorrectedTests = 2
	p, err := New(Config{Name: "sloppy", Policy: pol, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := synth.Credit(synth.CreditConfig{N: 3000, Seed: 19})
	if err := p.Load("credit", f); err != nil {
		t.Fatal(err)
	}
	tm, err := p.Train(TrainSpec{Target: "approved", Sensitive: "group", Protected: "B", Reference: "A"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p.RecordHypothesis(fmt.Sprintf("h%d", i), 0.04)
	}
	rep, err := p.Audit(tm)
	if err != nil {
		t.Fatal(err)
	}
	redAcc := false
	for _, fd := range rep.Findings {
		if fd.Dimension == "accuracy" && fd.Grade == policy.Red {
			redAcc = true
		}
	}
	if !redAcc {
		t.Fatalf("uncorrected testing not red:\n%s", rep.Render())
	}
}

func TestPipelineReleaseAudit(t *testing.T) {
	pol := strictPolicy()
	pol.MinKAnonymity = 10
	p, err := New(Config{Name: "publisher", Policy: pol, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := synth.Hospital(synth.HospitalConfig{N: 2000, Seed: 23})
	if err := p.Load("hospital", f); err != nil {
		t.Fatal(err)
	}
	res, err := privacy.Anonymize(f, privacy.AnonymizeConfig{K: 10, QuasiIdentifiers: []string{"age", "sex", "zip"}})
	if err != nil {
		t.Fatal(err)
	}
	p.RecordRelease(res)
	// Train something so Audit runs (hospital data: readmitted by sex).
	tm, err := p.Train(TrainSpec{Target: "readmitted", Sensitive: "sex", Protected: "F", Reference: "M"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Audit(tm)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Confidentiality.ReleaseMinK < 10 {
		t.Fatalf("release min k = %d", rep.Confidentiality.ReleaseMinK)
	}
	greenRelease := false
	for _, fd := range rep.Findings {
		if fd.Dimension == "confidentiality" && strings.Contains(fd.Message, "release min class") && fd.Grade == policy.Green {
			greenRelease = true
		}
	}
	if !greenRelease {
		t.Fatalf("k-anonymous release not green:\n%s", rep.Render())
	}
}

func TestPipelineValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nameless pipeline accepted")
	}
	if _, err := New(Config{Name: "x", Policy: policy.FACTPolicy{MinDisparateImpact: 2}}); err == nil {
		t.Fatal("invalid policy accepted")
	}
	p, _ := New(Config{Name: "x", Policy: policy.FACTPolicy{}})
	if err := p.Load("empty", frame.MustNew()); err == nil {
		t.Fatal("empty frame accepted")
	}
	if err := p.Transform("t", nil); err == nil {
		t.Fatal("transform before load accepted")
	}
	if _, err := p.Train(TrainSpec{}); err == nil {
		t.Fatal("train before load accepted")
	}
	if _, err := p.Audit(nil); err == nil {
		t.Fatal("audit of nil model accepted")
	}
}

func TestTrainSpecValidation(t *testing.T) {
	p, _ := New(Config{Name: "v", Policy: policy.FACTPolicy{}, Seed: 3})
	f, _ := synth.Credit(synth.CreditConfig{N: 300, Seed: 29})
	if err := p.Load("c", f); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(TrainSpec{Target: "approved"}); err == nil {
		t.Fatal("spec without groups accepted")
	}
	if _, err := p.Train(TrainSpec{
		Target: "approved", Sensitive: "group", Protected: "B", Reference: "A",
		TestFraction: 1.5,
	}); err == nil {
		t.Fatal("bad test fraction accepted")
	}
}

func TestMitigationString(t *testing.T) {
	if MitigateNone.String() != "none" || MitigateReweigh.String() != "reweigh" || MitigateThreshold.String() != "threshold" {
		t.Fatal("mitigation strings wrong")
	}
}

func TestPipelineAuditTrailGrows(t *testing.T) {
	p, tm := newCreditPipeline(t, 0, MitigateNone)
	before := p.AuditLog().Len()
	if _, err := p.Audit(tm); err != nil {
		t.Fatal(err)
	}
	if p.AuditLog().Len() != before+1 {
		t.Fatal("audit event not appended")
	}
	if p.AuditLog().Verify() != -1 {
		t.Fatal("audit chain broken")
	}
}
