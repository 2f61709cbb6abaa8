// Package explain implements the comprehensibility half of FACT Q4
// ("transparency: how to clarify answers so that they become
// indisputable?"). The paper's target is the black box "that apparently
// makes good decisions, but cannot rationalize them"; this package turns
// any Classifier into artifacts a human can audit:
//
//   - permutation feature importance (global: which inputs matter),
//   - partial-dependence profiles (global: how an input moves the score),
//   - a global surrogate decision tree with measured fidelity
//     (a readable approximation, honest about how faithful it is),
//   - local perturbation explanations (LIME-style linear weights around
//     one decision),
//   - counterfactuals ("what minimal change flips this decision").
package explain

import (
	"fmt"
	"math"
	"sort"

	"github.com/responsible-data-science/rds/internal/ml"
	"github.com/responsible-data-science/rds/internal/rng"
)

// Importance is one feature's permutation importance: the drop in accuracy
// when the feature's values are shuffled, averaged over repeats.
type Importance struct {
	Feature string
	Drop    float64 // accuracy_baseline - accuracy_permuted; higher = more important
}

// PermutationImportance computes permutation feature importance of model
// on the dataset, with `repeats` shuffles per feature.
func PermutationImportance(model ml.Classifier, d *ml.Dataset, repeats int, src *rng.Source) ([]Importance, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.N() < 10 {
		return nil, fmt.Errorf("explain: need >= 10 rows, got %d", d.N())
	}
	if repeats <= 0 {
		return nil, fmt.Errorf("explain: repeats must be positive, got %d", repeats)
	}
	baseline, err := ml.Accuracy(d.Y, ml.PredictAll(model, d.X))
	if err != nil {
		return nil, err
	}
	out := make([]Importance, d.D())
	col := make([]float64, d.N())
	for j := 0; j < d.D(); j++ {
		var totalDrop float64
		for r := 0; r < repeats; r++ {
			for i := range col {
				col[i] = d.X[i][j]
			}
			src.Shuffle(len(col), func(a, b int) { col[a], col[b] = col[b], col[a] })
			// Predict with the shuffled column swapped in, row by row, to
			// avoid copying the whole matrix.
			correct := 0.0
			buf := make([]float64, d.D())
			for i, row := range d.X {
				copy(buf, row)
				buf[j] = col[i]
				if ml.Predict(model, buf) == d.Y[i] {
					correct++
				}
			}
			totalDrop += baseline - correct/float64(d.N())
		}
		out[j] = Importance{Feature: d.Features[j], Drop: totalDrop / float64(repeats)}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Drop > out[b].Drop })
	return out, nil
}

// PDPoint is one grid point of a partial-dependence profile.
type PDPoint struct {
	Value    float64 // feature value
	MeanProb float64 // mean P(y=1) with the feature forced to Value
}

// PartialDependence computes the partial-dependence profile of the named
// feature over a grid of `points` values spanning its observed range.
func PartialDependence(model ml.Classifier, d *ml.Dataset, feature string, points int) ([]PDPoint, error) {
	if points < 2 {
		return nil, fmt.Errorf("explain: need >= 2 grid points, got %d", points)
	}
	j, err := d.FeatureIndex(feature)
	if err != nil {
		return nil, err
	}
	col := d.Column(j)
	lo, hi := col[0], col[0]
	for _, v := range col {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if lo == hi {
		return nil, fmt.Errorf("explain: feature %q is constant", feature)
	}
	out := make([]PDPoint, points)
	buf := make([]float64, d.D())
	for g := 0; g < points; g++ {
		v := lo + (hi-lo)*float64(g)/float64(points-1)
		var sum float64
		for _, row := range d.X {
			copy(buf, row)
			buf[j] = v
			sum += model.PredictProba(buf)
		}
		out[g] = PDPoint{Value: v, MeanProb: sum / float64(d.N())}
	}
	return out, nil
}

// Surrogate is a readable approximation of a black box, with its fidelity
// (agreement with the black box on the training data) measured and
// reported rather than assumed.
type Surrogate struct {
	Tree     *ml.Tree
	Fidelity float64 // fraction of rows where surrogate and black box agree
}

// FitSurrogate trains a depth-limited decision tree to mimic the black
// box's *predictions* (not the ground truth) and reports fidelity. A
// surrogate with low fidelity is an explanation of nothing; callers must
// check it.
func FitSurrogate(blackBox ml.Classifier, d *ml.Dataset, maxDepth int) (*Surrogate, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	preds := ml.PredictAll(blackBox, d.X)
	// The mimic shares d's rows: TrainTree only reads them.
	mimic := &ml.Dataset{X: d.X, Y: preds, Features: d.Features}
	tree, err := ml.TrainTree(mimic, ml.TreeConfig{MaxDepth: maxDepth, MinLeaf: 5})
	if err != nil {
		return nil, fmt.Errorf("explain: surrogate training: %w", err)
	}
	agree, err := ml.Accuracy(preds, ml.PredictAll(tree, d.X))
	if err != nil {
		return nil, err
	}
	return &Surrogate{Tree: tree, Fidelity: agree}, nil
}

// Rules returns the surrogate's decision rules.
func (s *Surrogate) Rules() []string { return s.Tree.Rules() }

// LocalExplanation is a linear approximation of the model around one
// instance: per-feature weights of a ridge regression fit to the black
// box's probabilities on proximity-weighted perturbations.
type LocalExplanation struct {
	Features  []string
	Weights   []float64
	Intercept float64
	BaseProb  float64 // black-box probability at the instance itself
}

// ExplainLocal produces a LIME-style local explanation of model at x:
// `samples` Gaussian perturbations are drawn around x (per-feature scale =
// the dataset's feature stddev), weighted by an RBF proximity kernel, and
// a weighted ridge regression maps perturbed inputs to the black box's
// probabilities.
func ExplainLocal(model ml.Classifier, d *ml.Dataset, x []float64, samples int, src *rng.Source) (*LocalExplanation, error) {
	if len(x) != d.D() {
		return nil, fmt.Errorf("explain: instance has %d features, dataset %d", len(x), d.D())
	}
	if samples < 50 {
		return nil, fmt.Errorf("explain: need >= 50 samples, got %d", samples)
	}
	std := ml.FitStandardizer(d)
	perturbed := &ml.Dataset{Features: append([]string(nil), d.Features...)}
	weights := make([]float64, samples)
	const kernelWidth = 0.75
	for s := 0; s < samples; s++ {
		row := make([]float64, len(x))
		var dist2 float64
		for j := range x {
			delta := src.Norm()
			row[j] = x[j] + delta*std.Scale[j]
			dist2 += delta * delta
		}
		perturbed.X = append(perturbed.X, row)
		perturbed.Y = append(perturbed.Y, model.PredictProba(row))
		weights[s] = math.Exp(-dist2 / (2 * kernelWidth * kernelWidth * float64(len(x))))
	}
	perturbed.Weights = weights
	lin, err := ml.TrainLinear(perturbed, 1e-3)
	if err != nil {
		return nil, fmt.Errorf("explain: local surrogate: %w", err)
	}
	return &LocalExplanation{
		Features:  perturbed.Features,
		Weights:   lin.Weights,
		Intercept: lin.Bias,
		BaseProb:  model.PredictProba(x),
	}, nil
}

// TopFeatures returns the k features with the largest absolute local
// weight, most influential first.
func (e *LocalExplanation) TopFeatures(k int) []string {
	idx := make([]int, len(e.Weights))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return math.Abs(e.Weights[idx[a]]) > math.Abs(e.Weights[idx[b]])
	})
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = e.Features[idx[i]]
	}
	return out
}

// Counterfactual is a minimal feature change that flips a decision.
type Counterfactual struct {
	Changed  map[string]float64 // feature -> new value
	NewProb  float64
	NumEdits int
}

// FindCounterfactual searches greedily for a small set of single-feature
// edits that flips model's decision on x to the desired class. Each step
// scans a grid over each feature's observed range and commits the single
// edit with the best probability movement. maxEdits bounds the number of
// changed features. Returns an error when no flip is found — silence
// would imply the decision is unconditional, which is itself a finding
// the caller must see.
func FindCounterfactual(model ml.Classifier, d *ml.Dataset, x []float64, desired float64, maxEdits int, immutable []string) (*Counterfactual, error) {
	if len(x) != d.D() {
		return nil, fmt.Errorf("explain: instance has %d features, dataset %d", len(x), d.D())
	}
	if desired != 0 && desired != 1 {
		return nil, fmt.Errorf("explain: desired class must be 0/1, got %v", desired)
	}
	if maxEdits <= 0 {
		return nil, fmt.Errorf("explain: maxEdits must be positive")
	}
	frozen := map[int]bool{}
	for _, name := range immutable {
		j, err := d.FeatureIndex(name)
		if err != nil {
			return nil, err
		}
		frozen[j] = true
	}
	lo := make([]float64, d.D())
	hi := make([]float64, d.D())
	for j := 0; j < d.D(); j++ {
		col := d.Column(j)
		lo[j], hi[j] = col[0], col[0]
		for _, v := range col {
			lo[j] = math.Min(lo[j], v)
			hi[j] = math.Max(hi[j], v)
		}
	}
	want := func(p float64) bool {
		if desired == 1 {
			return p >= 0.5
		}
		return p < 0.5
	}
	score := func(p float64) float64 {
		if desired == 1 {
			return p
		}
		return -p
	}
	cur := append([]float64(nil), x...)
	changed := map[string]float64{}
	const grid = 25
	for edit := 0; edit < maxEdits; edit++ {
		p := model.PredictProba(cur)
		if want(p) {
			break
		}
		bestJ := -1
		var bestV, bestScore float64
		bestScore = score(p)
		for j := 0; j < d.D(); j++ {
			if frozen[j] || lo[j] == hi[j] {
				continue
			}
			orig := cur[j]
			for g := 0; g <= grid; g++ {
				v := lo[j] + (hi[j]-lo[j])*float64(g)/grid
				cur[j] = v
				if s := score(model.PredictProba(cur)); s > bestScore {
					bestScore = s
					bestJ = j
					bestV = v
				}
			}
			cur[j] = orig
		}
		if bestJ < 0 {
			break // no single edit improves further
		}
		cur[bestJ] = bestV
		changed[d.Features[bestJ]] = bestV
	}
	final := model.PredictProba(cur)
	if !want(final) {
		return nil, fmt.Errorf("explain: no counterfactual within %d edits (prob %.3f)", maxEdits, final)
	}
	return &Counterfactual{Changed: changed, NewProb: final, NumEdits: len(changed)}, nil
}
