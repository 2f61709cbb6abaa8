// Package fairness implements FACT Q1: "data science without prejudice —
// how to avoid unfair conclusions even if they are true?"
//
// It provides three layers:
//
//   - Measurement: group fairness metrics (statistical parity, disparate
//     impact, equal opportunity, equalized odds, predictive parity,
//     per-group calibration) and individual-fairness consistency.
//   - Detection: proxy/redlining discovery (features that encode the
//     sensitive attribute even after it is dropped — the paper's warning
//     that "even if sensitive attributes are omitted, members of certain
//     groups may still be systematically rejected") and situation testing.
//   - Mitigation: reweighing and massaging (pre-processing), disparate
//     impact repair (feature transformation), and reject-option /
//     per-group threshold optimization (post-processing).
//
// Conventions: the protected group and reference group are identified by
// their string labels; predictions and labels are 0/1 with 1 the
// favourable outcome (e.g. loan approved).
package fairness

import (
	"fmt"
	"math"

	"github.com/responsible-data-science/rds/internal/exec"
	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/ml"
)

// GroupStats summarizes outcomes within one group.
type GroupStats struct {
	Group        string
	N            int
	BaseRate     float64 // P(y=1), from true labels
	PositiveRate float64 // P(yhat=1)
	TPR          float64 // recall within the group
	FPR          float64
	Precision    float64
}

// Report compares a protected group against a reference group on the
// standard group-fairness metrics.
type Report struct {
	Protected GroupStats
	Reference GroupStats

	// StatisticalParityDifference is P(yhat=1|protected) - P(yhat=1|reference).
	// 0 is parity; negative values disadvantage the protected group.
	StatisticalParityDifference float64
	// DisparateImpact is the ratio P(yhat=1|protected) / P(yhat=1|reference).
	// The EEOC "four-fifths rule" flags values below 0.8.
	DisparateImpact float64
	// EqualOpportunityDifference is TPR(protected) - TPR(reference).
	EqualOpportunityDifference float64
	// EqualizedOddsDifference is max(|dTPR|, |dFPR|).
	EqualizedOddsDifference float64
	// PredictiveParityDifference is precision(protected) - precision(reference).
	PredictiveParityDifference float64
}

// FourFifths reports whether the disparate-impact ratio passes the
// four-fifths rule.
func (r Report) FourFifths() bool { return r.DisparateImpact >= 0.8 }

// Evaluate computes the group-fairness report for hard predictions yPred
// against true labels yTrue, with groups naming each row's group
// membership. Labels and predictions must be 0/1. The group tallies are
// integer outcome counts merged in deterministic chunk order by
// internal/exec, so the report is bit-for-bit identical at every
// GOMAXPROCS: parallelism changes wall-clock time, never the metrics.
func Evaluate(yTrue, yPred []float64, groups []string, protected, reference string) (Report, error) {
	if len(yTrue) != len(yPred) || len(yTrue) != len(groups) {
		return Report{}, fmt.Errorf("fairness: length mismatch: %d labels, %d predictions, %d groups",
			len(yTrue), len(yPred), len(groups))
	}
	kernel := exec.NewOutcomes(yTrue, yPred, groups, protected, reference)
	return reportFromKernel(kernel, yTrue, yPred, func(i int) string { return groups[i] }, protected, reference, 0)
}

// EvaluateSeriesSharded is Evaluate keyed on the group column itself
// instead of pre-rendered strings, on an explicit shard count (0
// selects runtime.GOMAXPROCS). Dictionary-encoded columns tally by
// int32 code — no string hash per row — and the report is
// bit-identical to the string-keyed path and to every other shard count
// (property-tested). It is the fairness kernel of every FACT audit
// (core.Audit).
func EvaluateSeriesSharded(yTrue, yPred []float64, groups *frame.Series, protected, reference string, shards int) (Report, error) {
	if len(yTrue) != len(yPred) || len(yTrue) != groups.Len() {
		return Report{}, fmt.Errorf("fairness: length mismatch: %d labels, %d predictions, %d groups",
			len(yTrue), len(yPred), groups.Len())
	}
	kernel := exec.NewOutcomesSeries(yTrue, yPred, groups, protected, reference)
	return reportFromKernel(kernel, yTrue, yPred, groups.Str, protected, reference, shards)
}

// reportFromKernel runs an outcomes kernel and derives the two-group
// report — the shared tail of the string-keyed and column-keyed
// evaluations. groupAt names row i's group for error messages only.
func reportFromKernel(kernel exec.Kernel, yTrue, yPred []float64, groupAt func(int) string, protected, reference string, shards int) (Report, error) {
	st, err := exec.RunOne(len(yTrue), exec.Options{Shards: shards}, kernel)
	if err != nil {
		return Report{}, fmt.Errorf("fairness: %w", err)
	}
	out := st.(*exec.Outcomes)
	if i := out.ErrRow; i >= 0 {
		return Report{}, fmt.Errorf("fairness: group %q: non-binary label/prediction at row %d: %v/%v",
			groupAt(i), i, yTrue[i], yPred[i])
	}
	prot, err := groupStats(out, protected)
	if err != nil {
		return Report{}, err
	}
	ref, err := groupStats(out, reference)
	if err != nil {
		return Report{}, err
	}
	r := Report{Protected: prot, Reference: ref}
	r.StatisticalParityDifference = prot.PositiveRate - ref.PositiveRate
	if ref.PositiveRate > 0 {
		r.DisparateImpact = prot.PositiveRate / ref.PositiveRate
	} else if prot.PositiveRate == 0 {
		r.DisparateImpact = 1 // nobody gets the favourable outcome anywhere
	} else {
		r.DisparateImpact = math.Inf(1)
	}
	r.EqualOpportunityDifference = prot.TPR - ref.TPR
	r.EqualizedOddsDifference = math.Max(math.Abs(prot.TPR-ref.TPR), math.Abs(prot.FPR-ref.FPR))
	r.PredictiveParityDifference = prot.Precision - ref.Precision
	return r, nil
}

// groupStats derives one group's rates from its merged outcome counts.
// Every rate is computed from exact integer tallies through the same
// ml.ConfusionMatrix formulas a sequential pass uses, so the result is
// independent of how the rows were sharded.
func groupStats(out *exec.Outcomes, name string) (GroupStats, error) {
	c := out.Counts[name]
	if c == nil || c.N == 0 {
		return GroupStats{}, fmt.Errorf("fairness: group %q has no rows", name)
	}
	cm := ml.ConfusionMatrix{
		TP: float64(c.TP), FP: float64(c.FP),
		TN: float64(c.TN), FN: float64(c.FN),
	}
	return GroupStats{
		Group:        name,
		N:            int(c.N),
		BaseRate:     float64(c.TP+c.FN) / float64(c.N),
		PositiveRate: cm.PositiveRate(),
		TPR:          cm.Recall(),
		FPR:          cm.FalsePositiveRate(),
		Precision:    cm.Precision(),
	}, nil
}

// CalibrationGap returns the absolute difference in expected calibration
// error between the two groups, given probabilistic predictions. Per-group
// calibration is the fairness notion under which a score means the same
// thing regardless of group membership.
func CalibrationGap(yTrue, probs []float64, groups []string, protected, reference string, bins int) (float64, error) {
	if len(yTrue) != len(probs) || len(yTrue) != len(groups) {
		return 0, fmt.Errorf("fairness: CalibrationGap length mismatch")
	}
	ece := func(name string) (float64, error) {
		var gt, gp []float64
		for i, g := range groups {
			if g == name {
				gt = append(gt, yTrue[i])
				gp = append(gp, probs[i])
			}
		}
		if len(gt) == 0 {
			return 0, fmt.Errorf("fairness: group %q has no rows", name)
		}
		return ml.ExpectedCalibrationError(gt, gp, bins)
	}
	a, err := ece(protected)
	if err != nil {
		return 0, err
	}
	b, err := ece(reference)
	if err != nil {
		return 0, err
	}
	return math.Abs(a - b), nil
}

// Consistency measures individual fairness as 1 - mean |yhat_i - mean
// yhat of the k nearest neighbours of i| over the feature space (Zemel et
// al.'s consistency score). 1 means identical treatment of similar
// individuals. The neighbour search excludes the point itself.
func Consistency(d *ml.Dataset, yPred []float64, k int) (float64, error) {
	if len(yPred) != d.N() {
		return 0, fmt.Errorf("fairness: Consistency needs one prediction per row")
	}
	if k <= 0 || k >= d.N() {
		return 0, fmt.Errorf("fairness: Consistency k=%d out of range [1,%d)", k, d.N())
	}
	// Reuse KNN with k+1 neighbours (the nearest is the point itself).
	knn, err := ml.TrainKNN(d, k+1)
	if err != nil {
		return 0, err
	}
	var total float64
	for i, x := range d.X {
		nb := knn.Neighbors(x)
		var sum float64
		count := 0
		for _, j := range nb {
			if j == i {
				continue
			}
			sum += yPred[j]
			count++
			if count == k {
				break
			}
		}
		total += math.Abs(yPred[i] - sum/float64(count))
	}
	return 1 - total/float64(d.N()), nil
}
