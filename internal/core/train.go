package core

import (
	"fmt"

	"github.com/responsible-data-science/rds/internal/fairness"
	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/ml"
	"github.com/responsible-data-science/rds/internal/provenance"
)

// Mitigation selects the fairness intervention applied during training.
type Mitigation int

// Mitigation strategies.
const (
	// MitigateNone trains directly on the (possibly biased) labels.
	MitigateNone Mitigation = iota
	// MitigateReweigh applies Kamiran-Calders instance weights.
	MitigateReweigh
	// MitigateThreshold post-processes with per-group thresholds
	// targeting demographic parity.
	MitigateThreshold
)

// ParseMitigation maps a mitigation name ("none", "reweigh",
// "threshold") to its Mitigation, as used by CLI flags and the audit
// service's JSON requests.
func ParseMitigation(name string) (Mitigation, error) {
	switch name {
	case "", "none":
		return MitigateNone, nil
	case "reweigh":
		return MitigateReweigh, nil
	case "threshold":
		return MitigateThreshold, nil
	}
	return MitigateNone, fmt.Errorf("core: unknown mitigation %q (want none, reweigh, or threshold)", name)
}

// String renders the mitigation name.
func (m Mitigation) String() string {
	switch m {
	case MitigateNone:
		return "none"
	case MitigateReweigh:
		return "reweigh"
	case MitigateThreshold:
		return "threshold"
	}
	return fmt.Sprintf("Mitigation(%d)", int(m))
}

// TrainSpec describes a training run over the pipeline's working frame.
type TrainSpec struct {
	Target       string   // binary label column (1 = favourable)
	Sensitive    string   // sensitive-attribute column (excluded from features)
	Protected    string   // protected group value of Sensitive
	Reference    string   // reference group value of Sensitive
	Exclude      []string // additional columns to keep out of the features
	TestFraction float64  // default 0.3
	Mitigation   Mitigation
	Epochs       int // cap on the logistic fit's Newton iterations (default 40)
	// TrueGroups optionally names a column holding the auditor's
	// ground-truth sensitive attribute — the curriculum's "auditor's
	// check" when Sensitive has been privatized (e.g. LDP randomized
	// response): mitigation and thresholds see only the noisy Sensitive
	// column, but the fairness evaluation groups by TrueGroups, so the
	// audit measures real disparate impact, not disparate impact among
	// the noise. Always excluded from features. Empty means Sensitive
	// is the truth (the historical behavior).
	TrueGroups string
}

// TrainedModel is the result of Pipeline.Train: the model, its held-out
// evaluation artifacts, and the transparency card.
type TrainedModel struct {
	Model ml.Classifier
	Spec  TrainSpec
	Test  *ml.Dataset
	// TestGroupCol is the fairness-evaluation grouping restricted to
	// the test split: the Sensitive column, or TrueGroups when the spec
	// sets it (the auditor's ground-truth check over a privatized
	// attribute). It keeps the column's dictionary encoding so the
	// fairness kernel can tally by code.
	TestGroupCol *frame.Series
	TestProbs    []float64
	TestPreds    []float64
	Thresholds   *fairness.GroupThresholds // non-nil for MitigateThreshold
	Accuracy     float64
	Correct      int // test rows TestPreds gets right: Accuracy's exact numerator
	AUC          float64
	Card         *provenance.ModelCard
	LineageID    string
}

// Train fits a logistic model on the working frame per spec, with the
// chosen fairness mitigation, evaluates it on a held-out split, and
// records model provenance plus a model card.
func (p *Pipeline) Train(spec TrainSpec) (*TrainedModel, error) {
	if p.data == nil {
		return nil, fmt.Errorf("core: Train before Load")
	}
	if spec.Target == "" || spec.Sensitive == "" || spec.Protected == "" || spec.Reference == "" {
		return nil, fmt.Errorf("core: TrainSpec needs Target, Sensitive, Protected and Reference")
	}
	if spec.TestFraction == 0 {
		spec.TestFraction = 0.3
	}
	if spec.TestFraction <= 0 || spec.TestFraction >= 1 {
		return nil, fmt.Errorf("core: TestFraction %v out of (0,1)", spec.TestFraction)
	}
	if spec.Epochs <= 0 {
		spec.Epochs = 40
	}

	exclude := append([]string{spec.Sensitive}, spec.Exclude...)
	if spec.TrueGroups != "" {
		exclude = append(exclude, spec.TrueGroups)
	}
	ds, err := ml.FromFrame(p.data, spec.Target, exclude...)
	if err != nil {
		return nil, fmt.Errorf("core: encoding features: %w", err)
	}
	groupCol := p.data.MustCol(spec.Sensitive)
	groups := groupCol.Strings()
	// evalCol carries the fairness-evaluation grouping: the true
	// attribute when TrueGroups is set, otherwise Sensitive itself.
	evalCol := groupCol
	if spec.TrueGroups != "" {
		c, err := p.data.Col(spec.TrueGroups)
		if err != nil {
			return nil, fmt.Errorf("core: TrueGroups column: %w", err)
		}
		evalCol = c
	}

	// Deterministic split that keeps group labels aligned with rows.
	perm := p.src.Perm(ds.N())
	nTest := int(float64(ds.N()) * spec.TestFraction)
	if nTest < 1 || ds.N()-nTest < 2 {
		return nil, fmt.Errorf("core: %d rows cannot support test fraction %v", ds.N(), spec.TestFraction)
	}
	testIdx, trainIdx := perm[:nTest], perm[nTest:]
	trainSet := ds.Subset(trainIdx)
	testSet := ds.Subset(testIdx)
	// testGroups follows Sensitive — it drives mitigation (thresholds
	// are keyed by the attribute the served model can actually see);
	// the fairness evaluation follows evalCol.
	testGroups := make([]string, len(testIdx))
	for i, idx := range testIdx {
		testGroups[i] = groups[idx]
	}
	trainGroups := make([]string, len(trainIdx))
	for i, idx := range trainIdx {
		trainGroups[i] = groups[idx]
	}

	if spec.Mitigation == MitigateReweigh {
		w, err := fairness.Reweigh(trainSet.Y, trainGroups)
		if err != nil {
			return nil, fmt.Errorf("core: reweighing: %w", err)
		}
		trainSet.Weights = w
	}

	model, err := ml.TrainLogistic(trainSet, ml.LogisticConfig{Epochs: spec.Epochs})
	if err != nil {
		return nil, fmt.Errorf("core: training: %w", err)
	}

	tm := &TrainedModel{
		Model:        model,
		Spec:         spec,
		Test:         testSet,
		TestGroupCol: evalCol.Take(testIdx),
		TestProbs:    ml.PredictProbaAll(model, testSet.X),
	}
	if spec.Mitigation == MitigateThreshold {
		th, err := fairness.OptimizeThresholds(testSet.Y, tm.TestProbs, testGroups,
			spec.Protected, spec.Reference, fairness.DemographicParity)
		if err != nil {
			return nil, fmt.Errorf("core: threshold optimization: %w", err)
		}
		tm.Thresholds = &th
		tm.TestPreds = th.Apply(tm.TestProbs, testGroups)
	} else {
		// ml.Predict's 0.5 cut over the probabilities already computed.
		tm.TestPreds = make([]float64, len(tm.TestProbs))
		for i, p := range tm.TestProbs {
			if p >= 0.5 {
				tm.TestPreds[i] = 1
			}
		}
	}

	acc, err := ml.Accuracy(testSet.Y, tm.TestPreds)
	if err != nil {
		return nil, err
	}
	tm.Accuracy = acc
	for i, y := range testSet.Y {
		if tm.TestPreds[i] == y {
			tm.Correct++
		}
	}
	if auc, err := ml.AUC(testSet.Y, tm.TestProbs); err == nil {
		tm.AUC = auc
	}

	// Provenance: model node + card.
	id := p.nextID("model")
	dataHash := ""
	if n, ok := p.graph.Get(p.lastNode); ok {
		dataHash = n.Hash
	}
	if _, err := p.graph.Add(id, provenance.KindModel,
		fmt.Sprintf("logistic(%s|mitigation=%s)", spec.Target, spec.Mitigation),
		provenance.HashStrings(dataHash, spec.Target, spec.Mitigation.String()),
		p.inputsOrNone(),
		map[string]string{"mitigation": spec.Mitigation.String(), "epochs": fmt.Sprintf("%d", spec.Epochs)},
	); err != nil {
		return nil, err
	}
	tm.LineageID = id
	p.audit.Append(p.cfg.Actor, "train", id,
		fmt.Sprintf("acc=%.4f auc=%.4f mitigation=%s", tm.Accuracy, tm.AUC, spec.Mitigation))

	tm.Card = &provenance.ModelCard{
		Name:           p.cfg.Name + "/" + spec.Target,
		Version:        "1",
		ModelType:      "logistic regression (Newton/IRLS, standardized)",
		IntendedUse:    fmt.Sprintf("predict %q; protected group %q vs %q", spec.Target, spec.Protected, spec.Reference),
		TrainingData:   fmt.Sprintf("pipeline %s working frame [%.12s]", p.cfg.Name, dataHash),
		Features:       testSet.Features,
		ExcludedFields: exclude,
		Metrics:        map[string]float64{"accuracy": tm.Accuracy, "auc": tm.AUC},
		LineageID:      id,
	}
	return tm, nil
}
