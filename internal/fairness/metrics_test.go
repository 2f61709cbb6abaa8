package fairness

import (
	"math"
	"testing"

	"github.com/responsible-data-science/rds/internal/ml"
)

// fixedOutcomes builds labels/predictions/groups with exact per-group rates.
//
//	ref:  40 rows, 20 true-pos-label; predictions give TPR 0.9, FPR 0.2
//	prot: 40 rows, 20 true-pos-label; predictions give TPR 0.5, FPR 0.1
func fixedOutcomes() (yTrue, yPred []float64, groups []string) {
	addRows := func(g string, y, p float64, n int) {
		for i := 0; i < n; i++ {
			yTrue = append(yTrue, y)
			yPred = append(yPred, p)
			groups = append(groups, g)
		}
	}
	// Reference: TP=18 FN=2 FP=4 TN=16.
	addRows("ref", 1, 1, 18)
	addRows("ref", 1, 0, 2)
	addRows("ref", 0, 1, 4)
	addRows("ref", 0, 0, 16)
	// Protected: TP=10 FN=10 FP=2 TN=18.
	addRows("prot", 1, 1, 10)
	addRows("prot", 1, 0, 10)
	addRows("prot", 0, 1, 2)
	addRows("prot", 0, 0, 18)
	return
}

func TestEvaluateKnownRates(t *testing.T) {
	yTrue, yPred, groups := fixedOutcomes()
	r, err := Evaluate(yTrue, yPred, groups, "prot", "ref")
	if err != nil {
		t.Fatal(err)
	}
	if r.Reference.N != 40 || r.Protected.N != 40 {
		t.Fatalf("group sizes %d/%d", r.Protected.N, r.Reference.N)
	}
	// Positive rates: ref 22/40=0.55, prot 12/40=0.30.
	if math.Abs(r.Reference.PositiveRate-0.55) > 1e-12 {
		t.Errorf("ref positive rate = %v", r.Reference.PositiveRate)
	}
	if math.Abs(r.Protected.PositiveRate-0.30) > 1e-12 {
		t.Errorf("prot positive rate = %v", r.Protected.PositiveRate)
	}
	if math.Abs(r.StatisticalParityDifference-(-0.25)) > 1e-12 {
		t.Errorf("SPD = %v", r.StatisticalParityDifference)
	}
	if math.Abs(r.DisparateImpact-0.30/0.55) > 1e-12 {
		t.Errorf("DI = %v", r.DisparateImpact)
	}
	if r.FourFifths() {
		t.Error("DI 0.545 should fail four-fifths")
	}
	// TPR: ref 0.9, prot 0.5.
	if math.Abs(r.EqualOpportunityDifference-(-0.4)) > 1e-12 {
		t.Errorf("EOD = %v", r.EqualOpportunityDifference)
	}
	// Equalized odds: max(|0.4|, |0.1-0.2|) = 0.4.
	if math.Abs(r.EqualizedOddsDifference-0.4) > 1e-12 {
		t.Errorf("EOdds = %v", r.EqualizedOddsDifference)
	}
	// Base rates both 0.5.
	if r.Protected.BaseRate != 0.5 || r.Reference.BaseRate != 0.5 {
		t.Error("base rates wrong")
	}
}

func TestEvaluatePerfectParity(t *testing.T) {
	yTrue := []float64{1, 0, 1, 0}
	yPred := []float64{1, 0, 1, 0}
	groups := []string{"a", "a", "b", "b"}
	r, err := Evaluate(yTrue, yPred, groups, "b", "a")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatisticalParityDifference != 0 || r.DisparateImpact != 1 || r.EqualizedOddsDifference != 0 {
		t.Fatalf("parity metrics nonzero: %+v", r)
	}
	if !r.FourFifths() {
		t.Error("perfect parity should pass four-fifths")
	}
}

// TestEvaluateThreeGroupsPairwise: in a three-group population each
// pairwise report depends only on the two groups it compares — the
// third group's rows change nothing — and the four-fifths verdict
// follows each pair's ratio of positive rates.
func TestEvaluateThreeGroupsPairwise(t *testing.T) {
	var yTrue, yPred []float64
	var groups []string
	add := func(g string, y, p float64, n int) {
		for i := 0; i < n; i++ {
			yTrue = append(yTrue, y)
			yPred = append(yPred, p)
			groups = append(groups, g)
		}
	}
	// Positive rates: a = 0.6, b = 0.5, c = 0.3.
	add("a", 1, 1, 6)
	add("a", 0, 0, 4)
	add("b", 1, 1, 5)
	add("b", 0, 0, 5)
	add("c", 1, 1, 3)
	add("c", 0, 0, 7)
	for _, tc := range []struct {
		protected, reference string
		di                   float64
		fourFifths           bool
	}{
		{"b", "a", 0.5 / 0.6, true},
		{"c", "a", 0.3 / 0.6, false},
		{"c", "b", 0.3 / 0.5, false},
	} {
		r, err := Evaluate(yTrue, yPred, groups, tc.protected, tc.reference)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.DisparateImpact-tc.di) > 1e-12 {
			t.Errorf("%s vs %s: DI = %v, want %v", tc.protected, tc.reference, r.DisparateImpact, tc.di)
		}
		if r.FourFifths() != tc.fourFifths {
			t.Errorf("%s vs %s: FourFifths = %v at DI %v", tc.protected, tc.reference, r.FourFifths(), r.DisparateImpact)
		}
		var pt, pp []float64
		var pg []string
		for i, g := range groups {
			if g == tc.protected || g == tc.reference {
				pt, pp, pg = append(pt, yTrue[i]), append(pp, yPred[i]), append(pg, g)
			}
		}
		pair, err := Evaluate(pt, pp, pg, tc.protected, tc.reference)
		if err != nil {
			t.Fatal(err)
		}
		if !eqReport(r, pair) {
			t.Errorf("%s vs %s: third group's rows changed the report:\n got %+v\nwant %+v",
				tc.protected, tc.reference, r, pair)
		}
	}
}

// TestEvaluateEqualizedOddsFPRGap: equalized odds is the larger of the
// two error-rate gaps. With equal true-positive rates the
// false-positive gap alone sets it.
func TestEvaluateEqualizedOddsFPRGap(t *testing.T) {
	var yTrue, yPred []float64
	var groups []string
	add := func(g string, y, p float64, n int) {
		for i := 0; i < n; i++ {
			yTrue = append(yTrue, y)
			yPred = append(yPred, p)
			groups = append(groups, g)
		}
	}
	// Both groups: TPR 3/4. Reference FPR 1/4, protected FPR 3/4.
	add("ref", 1, 1, 3)
	add("ref", 1, 0, 1)
	add("ref", 0, 1, 1)
	add("ref", 0, 0, 3)
	add("prot", 1, 1, 3)
	add("prot", 1, 0, 1)
	add("prot", 0, 1, 3)
	add("prot", 0, 0, 1)
	r, err := Evaluate(yTrue, yPred, groups, "prot", "ref")
	if err != nil {
		t.Fatal(err)
	}
	if r.EqualOpportunityDifference != 0 {
		t.Errorf("EOD = %v, want 0 (equal TPR)", r.EqualOpportunityDifference)
	}
	if r.EqualizedOddsDifference != 0.5 {
		t.Errorf("EOdds = %v, want 0.5 (the FPR gap)", r.EqualizedOddsDifference)
	}
}

func TestEvaluateErrors(t *testing.T) {
	if _, err := Evaluate([]float64{1}, []float64{1, 0}, []string{"a", "b"}, "a", "b"); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Evaluate([]float64{1, 0}, []float64{1, 0}, []string{"a", "a"}, "missing", "a"); err == nil {
		t.Fatal("empty group accepted")
	}
}

func TestEvaluateZeroReferenceRate(t *testing.T) {
	yTrue := []float64{1, 1, 0, 0}
	yPred := []float64{0, 0, 1, 1}
	groups := []string{"ref", "ref", "prot", "prot"}
	r, err := Evaluate(yTrue, yPred, groups, "prot", "ref")
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(r.DisparateImpact, 1) {
		t.Fatalf("DI with zero reference rate = %v, want +Inf", r.DisparateImpact)
	}
	// Both rates zero -> DI defined as 1.
	yPred2 := []float64{0, 0, 0, 0}
	r, err = Evaluate(yTrue, yPred2, groups, "prot", "ref")
	if err != nil {
		t.Fatal(err)
	}
	if r.DisparateImpact != 1 {
		t.Fatalf("DI with both rates zero = %v, want 1", r.DisparateImpact)
	}
}

func TestCalibrationGap(t *testing.T) {
	// Group a perfectly calibrated at 0.5; group b predicted 0.9 but
	// observes 0.5 -> ECE gap 0.4.
	var yTrue, probs []float64
	var groups []string
	for i := 0; i < 100; i++ {
		y := 0.0
		if i%2 == 0 {
			y = 1
		}
		yTrue = append(yTrue, y)
		probs = append(probs, 0.5)
		groups = append(groups, "a")
	}
	for i := 0; i < 100; i++ {
		y := 0.0
		if i%2 == 0 {
			y = 1
		}
		yTrue = append(yTrue, y)
		probs = append(probs, 0.9)
		groups = append(groups, "b")
	}
	gap, err := CalibrationGap(yTrue, probs, groups, "b", "a", 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gap-0.4) > 1e-9 {
		t.Fatalf("calibration gap = %v, want 0.4", gap)
	}
}

func TestCalibrationGapErrors(t *testing.T) {
	if _, err := CalibrationGap([]float64{1}, []float64{0.5}, []string{"a"}, "b", "a", 10); err == nil {
		t.Fatal("missing group accepted")
	}
}

func TestConsistencyUniformPredictions(t *testing.T) {
	d := &ml.Dataset{Features: []string{"x"}}
	for i := 0; i < 50; i++ {
		d.X = append(d.X, []float64{float64(i)})
		d.Y = append(d.Y, 0)
	}
	pred := make([]float64, 50) // all zero: perfectly consistent
	c, err := Consistency(d, pred, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c != 1 {
		t.Fatalf("uniform consistency = %v, want 1", c)
	}
}

func TestConsistencyDetectsArbitraryDecisions(t *testing.T) {
	// Identical individuals with alternating predictions: minimal
	// consistency.
	d := &ml.Dataset{Features: []string{"x"}}
	pred := make([]float64, 40)
	for i := 0; i < 40; i++ {
		d.X = append(d.X, []float64{float64(i)})
		d.Y = append(d.Y, 0)
		pred[i] = float64(i % 2)
	}
	c, err := Consistency(d, pred, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c > 0.4 {
		t.Fatalf("alternating consistency = %v, want low", c)
	}
}

func TestConsistencyErrors(t *testing.T) {
	d := &ml.Dataset{X: [][]float64{{1}, {2}}, Y: []float64{0, 1}, Features: []string{"x"}}
	if _, err := Consistency(d, []float64{0}, 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Consistency(d, []float64{0, 1}, 5); err == nil {
		t.Fatal("k >= n accepted")
	}
}
