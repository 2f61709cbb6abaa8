package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/responsible-data-science/rds/internal/stats"
	"github.com/responsible-data-science/rds/internal/synth"
)

// TestAuditAccuracyIntervalUsesExactCount pins the accuracy interval to
// the number of test rows the model predicts correctly. Rebuilding that
// count as int(accuracy*n) loses one whenever (c/n)*n rounds to just
// below c, which happens for this audit: 388 correct of 600.
func TestAuditAccuracyIntervalUsesExactCount(t *testing.T) {
	p, err := New(Config{Name: "credit", Policy: strictPolicy(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	f, err := synth.Credit(synth.CreditConfig{N: 2000, Bias: 1.0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Load("credit", f); err != nil {
		t.Fatal(err)
	}
	tm, err := p.Train(TrainSpec{Target: "approved", Sensitive: "group", Protected: "B", Reference: "A", Epochs: 10})
	if err != nil {
		t.Fatal(err)
	}
	correct, n := 0, tm.Test.N()
	for i, y := range tm.Test.Y {
		if tm.TestPreds[i] == y {
			correct++
		}
	}
	if int(tm.Accuracy*float64(n)) == correct {
		t.Fatalf("%d correct of %d no longer rounds down; pick a case that does", correct, n)
	}
	rep, err := p.Audit(tm)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stats.WilsonCI(correct, n, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy.AccuracyCI != want {
		t.Errorf("accuracy CI = %+v, want WilsonCI(%d, %d) = %+v", rep.Accuracy.AccuracyCI, correct, n, want)
	}
	text := fmt.Sprintf("95%% CI [%.4f, %.4f] (n=%d)", want.Lower, want.Upper, n)
	found := false
	for _, fd := range rep.Findings {
		found = found || (fd.Dimension == "accuracy" && strings.Contains(fd.Message, text))
	}
	if !found {
		t.Errorf("no accuracy finding states %q: %+v", text, rep.Findings)
	}
}
