package ml

import "github.com/responsible-data-science/rds/internal/rng"

// sgdConfig holds the hyperparameters of the minibatch SGD trainer that
// TrainLogistic ran before it moved to Newton's method. It is kept here
// as the reference the tolerance suite compares the Newton fit against.
type sgdConfig struct {
	LearningRate float64 // step size (default 0.1)
	Epochs       int     // passes over the data (default 100)
	L2           float64 // ridge penalty on the standardized weights
	BatchSize    int     // minibatch size (default 32)
	Seed         uint64  // shuffling seed (default 1)
}

// trainLogisticSGD fits binary logistic regression by minibatch SGD
// over standardized features with a decaying step size, bit for bit the
// trainer the FACT audit used before Newton's method. It assumes d has
// passed TrainLogistic's checks.
func trainLogisticSGD(d *Dataset, cfg sgdConfig) *Logistic {
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.1
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 100
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
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
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		src.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		lr := cfg.LearningRate / (1 + 0.01*float64(epoch))
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(idx))
			for j := range gw {
				gw[j] = 0
			}
			gb, batchW := 0.0, 0.0
			for _, i := range idx[start:end] {
				w := 1.0
				if d.Weights != nil {
					if w = d.Weights[i]; w == 0 {
						continue
					}
				}
				x := xs[i*dim:][:dim]
				z := m.Bias
				for j, wj := range wts {
					z += wj * x[j]
				}
				err := (Sigmoid(z) - d.Y[i]) * w
				for j, xj := range x {
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
	for j := range m.Weights {
		m.Bias -= m.Weights[j] * std.Mean[j] / std.Scale[j]
		m.Weights[j] /= std.Scale[j]
	}
	return m
}
