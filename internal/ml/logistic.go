package ml

import (
	"fmt"
	"math"

	"github.com/responsible-data-science/rds/internal/rng"
)

// Classifier is a binary probabilistic classifier. PredictProba returns
// P(y=1 | x). Implementations must be deterministic once trained.
type Classifier interface {
	PredictProba(x []float64) float64
}

// Predict thresholds a classifier's probability at 0.5.
func Predict(c Classifier, x []float64) float64 {
	if c.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}

// PredictAll returns hard 0/1 predictions for every row.
func PredictAll(c Classifier, X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = Predict(c, x)
	}
	return out
}

// PredictProbaAll returns P(y=1|x) for every row.
func PredictProbaAll(c Classifier, X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = c.PredictProba(x)
	}
	return out
}

// LogisticConfig holds the hyperparameters of logistic-regression training.
type LogisticConfig struct {
	LearningRate float64 // SGD step size (default 0.1)
	Epochs       int     // passes over the data (default 100)
	L2           float64 // ridge penalty (default 0)
	BatchSize    int     // minibatch size (default 32)
	Seed         uint64  // shuffling seed (default 1)
}

func (c LogisticConfig) withDefaults() LogisticConfig {
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	if c.Epochs <= 0 {
		c.Epochs = 100
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Logistic is a trained logistic-regression model.
type Logistic struct {
	Weights  []float64 // per-feature coefficients
	Bias     float64
	Features []string
}

// Sigmoid is the logistic link function.
func Sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// TrainLogistic fits binary logistic regression by minibatch SGD with
// optional L2 regularization and per-sample weights. Targets must be 0/1.
func TrainLogistic(d *Dataset, cfg LogisticConfig) (*Logistic, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.N() == 0 {
		return nil, fmt.Errorf("ml: TrainLogistic on empty dataset")
	}
	for i, y := range d.Y {
		if y != 0 && y != 1 {
			return nil, fmt.Errorf("ml: TrainLogistic target must be 0/1, row %d is %v", i, y)
		}
	}
	cfg = cfg.withDefaults()
	// Standardize internally for SGD stability on raw feature scales,
	// then fold the affine transform back into the returned weights so the
	// model predicts over the caller's original feature space. The
	// standardized rows live in one row-major matrix, and the minibatch
	// loop below computes PredictProba's z inline over it: each z
	// accumulates in the same order, so the model is the same to the
	// last bit.
	std := FitStandardizer(d)
	n, dim := d.N(), d.D()
	xs := make([]float64, n*dim)
	for i, row := range d.X {
		for j, v := range row {
			xs[i*dim+j] = (v - std.Mean[j]) / std.Scale[j]
		}
	}
	m := &Logistic{Weights: make([]float64, dim), Features: append([]string(nil), d.Features...)}
	src := rng.New(cfg.Seed)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	wts := m.Weights
	gw := make([]float64, len(wts))
	zbuf := make([]float64, cfg.BatchSize)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		src.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		// Decaying step size stabilizes late epochs.
		lr := cfg.LearningRate / (1 + 0.01*float64(epoch))
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			for j := range gw {
				gw[j] = 0
			}
			gb := 0.0
			var batchW float64
			// The weights hold still within a batch, so every row's z
			// comes first and the dot products overlap instead of each
			// waiting on the previous row's Sigmoid.
			batch := idx[start:end]
			zs := zbuf[:len(batch)]
			batchZ(zs, xs, batch, wts, m.Bias)
			for k, i := range batch {
				w := 1.0
				if d.Weights != nil {
					if w = d.Weights[i]; w == 0 {
						continue
					}
				}
				err := (Sigmoid(zs[k]) - d.Y[i]) * w
				for j, xj := range xs[i*dim:][:len(gw)] {
					gw[j] += err * xj
				}
				gb += err
				batchW += w
			}
			if batchW == 0 {
				continue
			}
			for j := range wts {
				wts[j] -= lr * (gw[j]/batchW + cfg.L2*wts[j])
			}
			m.Bias -= lr * gb / batchW
		}
	}
	// Un-standardize: w'_j = w_j / s_j, b' = b - sum_j w_j m_j / s_j.
	for j := range m.Weights {
		m.Bias -= m.Weights[j] * std.Mean[j] / std.Scale[j]
		m.Weights[j] /= std.Scale[j]
	}
	return m, nil
}

// batchZ sets zs[k] to bias + w·x for row batch[k] of the row-major
// matrix xs, summing in feature order as PredictProba does. Rows go in
// pairs so that two independent sums are in flight at once.
func batchZ(zs, xs []float64, batch []int, w []float64, bias float64) {
	dim := len(w)
	k := 0
	for ; k+1 < len(batch); k += 2 {
		x0, x1 := xs[batch[k]*dim:][:dim], xs[batch[k+1]*dim:][:dim]
		z0, z1 := bias, bias
		for j, wj := range w {
			z0 += wj * x0[j]
			z1 += wj * x1[j]
		}
		zs[k], zs[k+1] = z0, z1
	}
	if k < len(batch) {
		x := xs[batch[k]*dim:][:dim]
		z := bias
		for j, wj := range w {
			z += wj * x[j]
		}
		zs[k] = z
	}
}

// PredictProba returns P(y=1 | x).
func (m *Logistic) PredictProba(x []float64) float64 {
	z := m.Bias
	for j, w := range m.Weights {
		z += w * x[j]
	}
	return Sigmoid(z)
}

// Coefficients returns a copy of feature-name → coefficient, the model's
// native transparency artifact.
func (m *Logistic) Coefficients() map[string]float64 {
	out := make(map[string]float64, len(m.Weights))
	for j, f := range m.Features {
		out[f] = m.Weights[j]
	}
	return out
}
