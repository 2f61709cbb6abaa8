package ml

import (
	"math"
	"testing"

	"github.com/responsible-data-science/rds/internal/rng"
)

// withSparseColumns appends two sparse features to d: a 0/1 level set
// in about a quarter of the rows and a positive value in about a tenth.
func withSparseColumns(d *Dataset, seed uint64) *Dataset {
	src := rng.New(seed)
	d.Features = append(d.Features, "level", "rare")
	for i, x := range d.X {
		level, rare := 0.0, 0.0
		if src.Intn(4) == 0 {
			level = 1
		}
		if src.Intn(10) == 0 {
			rare = src.Exp(0.5)
		}
		d.X[i] = append(x, level, rare)
	}
	return d
}

// TestNewtonEvalDerivatives checks eval's fused pass against central
// differences of its own objective and gradient, weighted and with the
// L2 penalty on, at a point away from the optimum, over dense and
// sparse features.
func TestNewtonEvalDerivatives(t *testing.T) {
	d := withSparseColumns(logisticGoldenData(300, true, 5), 6)
	p := newNewtonProblem(d, FitStandardizer(d), 0.05)
	if p.nd != 6 || p.dim != 8 {
		t.Fatalf("%d dense columns of %d, want 6 of 8", p.nd, p.dim)
	}
	src := rng.New(8)
	beta := make([]float64, p.dim)
	for j := range beta {
		beta[j] = src.Normal(0, 0.7)
	}
	p.eval(beta)
	g := append([]float64(nil), p.g...)
	h := append([]float64(nil), p.h...)
	const eps = 1e-5
	for j := range beta {
		plus := append([]float64(nil), beta...)
		minus := append([]float64(nil), beta...)
		plus[j] += eps
		minus[j] -= eps
		fPlus, gPlus := p.eval(plus), append([]float64(nil), p.g...)
		fMinus, gMinus := p.eval(minus), append([]float64(nil), p.g...)
		if num := (fPlus - fMinus) / (2 * eps); math.Abs(num-g[j]) > 1e-7 {
			t.Errorf("gradient %d: %.10g, central difference %.10g", j, g[j], num)
		}
		for k := range beta {
			// The Hessian's column j is the derivative of g along beta_j.
			if num := (gPlus[k] - gMinus[k]) / (2 * eps); math.Abs(num-h[k*p.dim+j]) > 1e-7 {
				t.Errorf("Hessian (%d,%d): %.10g, central difference %.10g", k, j, h[k*p.dim+j], num)
			}
		}
	}
}

// TestLogisticSparseColumnsChangeOnlyRounding: complementing a 0/1
// feature moves it from the sparse columns to the dense ones. The
// standardized fit only flips that feature's sign, so the model maps
// exactly to the original one, the ridge on the bias included.
func TestLogisticSparseColumnsChangeOnlyRounding(t *testing.T) {
	d := withSparseColumns(logisticGoldenData(400, true, 9), 10)
	flipped := &Dataset{Features: d.Features, Y: d.Y, Weights: d.Weights}
	for _, x := range d.X {
		x = append([]float64(nil), x...)
		x[5] = 1 - x[5]
		flipped.X = append(flipped.X, x)
	}
	m, err := TrainLogistic(d, LogisticConfig{Epochs: 40})
	if err != nil {
		t.Fatal(err)
	}
	mf, err := TrainLogistic(flipped, LogisticConfig{Epochs: 40})
	if err != nil {
		t.Fatal(err)
	}
	wantBias := m.Bias + m.Weights[5]
	if math.Abs(mf.Bias-wantBias) > 1e-9*math.Abs(wantBias) {
		t.Errorf("bias %v, want %v", mf.Bias, wantBias)
	}
	for j, w := range m.Weights {
		if j == 5 {
			w = -w
		}
		if math.Abs(mf.Weights[j]-w) > 1e-9*math.Abs(w) {
			t.Errorf("weight %d: %v, want %v", j, mf.Weights[j], w)
		}
	}
}

// trainConverged trains d at the audit's cap of 40 iterations and
// checks that a much larger cap returns the same model bit for bit, so
// the fit stopped on its own before the cap.
func trainConverged(t *testing.T, d *Dataset) *Logistic {
	t.Helper()
	m, err := TrainLogistic(d, LogisticConfig{Epochs: 40})
	if err != nil {
		t.Fatal(err)
	}
	uncapped, err := TrainLogistic(d, LogisticConfig{Epochs: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if uncapped.Bias != m.Bias {
		t.Fatalf("not converged within 40 iterations: bias %v, uncapped %v", m.Bias, uncapped.Bias)
	}
	for j := range m.Weights {
		if uncapped.Weights[j] != m.Weights[j] {
			t.Fatalf("not converged within 40 iterations: weight %d %v, uncapped %v", j, m.Weights[j], uncapped.Weights[j])
		}
	}
	for j, w := range m.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatalf("weight %d is %v", j, w)
		}
	}
	for i, x := range d.X {
		if p := m.PredictProba(x); !(p >= 0 && p <= 1) {
			t.Fatalf("row %d: probability %v", i, p)
		}
	}
	return m
}

// TestLogisticSeparableConverges: with no finite maximum-likelihood
// fit, the internal ridge still gives the iteration an optimum to stop
// at. The data has no margin, so that optimum may misplace a row that
// sits on the boundary, but no more.
func TestLogisticSeparableConverges(t *testing.T) {
	d := linearlySeparable(400, 4)
	m := trainConverged(t, d)
	if acc := accuracyOn(t, m, d); acc < 0.99 {
		t.Errorf("training accuracy %v on separable data", acc)
	}
}

// TestLogisticSingleClassConverges: one class only drives the bias
// toward infinity without the ridge; with it the fit stops and predicts
// the one class everywhere.
func TestLogisticSingleClassConverges(t *testing.T) {
	for _, label := range []float64{0, 1} {
		d := linearlySeparable(200, 6)
		for i := range d.Y {
			d.Y[i] = label
		}
		m := trainConverged(t, d)
		for i, x := range d.X {
			if p := Predict(m, x); p != label {
				t.Fatalf("label %v: row %d predicted %v", label, i, p)
			}
		}
	}
}

// TestLogisticZeroWeightsGiveZeroModel: rows that all carry weight 0
// leave only the penalty, whose optimum is the zero model.
func TestLogisticZeroWeightsGiveZeroModel(t *testing.T) {
	d := linearlySeparable(50, 7)
	d.Weights = make([]float64, d.N())
	m, err := TrainLogistic(d, LogisticConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Bias != 0 {
		t.Errorf("bias %v, want 0", m.Bias)
	}
	for j, w := range m.Weights {
		if w != 0 {
			t.Errorf("weight %d is %v, want 0", j, w)
		}
	}
}

// TestLogisticConstantFeatureGetsZeroWeight: a feature that never
// varies carries no signal, and the ridge keeps its weight at 0.
func TestLogisticConstantFeatureGetsZeroWeight(t *testing.T) {
	d := linearlySeparable(300, 8)
	d.Features = append(d.Features, "const")
	for i := range d.X {
		d.X[i] = append(d.X[i], 3.5)
	}
	m, err := TrainLogistic(d, LogisticConfig{Epochs: 40})
	if err != nil {
		t.Fatal(err)
	}
	if w := m.Weights[2]; w != 0 {
		t.Errorf("constant feature weight %v, want 0", w)
	}
}

// TestLogisticEpochsCapsIterations: a cap below convergence stops early
// and changes the model, which is why the audit's epochs field stays in
// the report-cache key; the seed changes nothing.
func TestLogisticEpochsCapsIterations(t *testing.T) {
	d := logisticGoldenData(500, false, 3)
	one, err := TrainLogistic(d, LogisticConfig{Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := TrainLogistic(d, LogisticConfig{Epochs: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if one.Bias == full.Bias {
		t.Error("one iteration gave the converged bias")
	}
	reseeded, err := TrainLogistic(d, LogisticConfig{Epochs: 40, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if reseeded.Bias != full.Bias {
		t.Errorf("seed changed the model: bias %v vs %v", reseeded.Bias, full.Bias)
	}
	for j := range full.Weights {
		if reseeded.Weights[j] != full.Weights[j] {
			t.Errorf("seed changed weight %d: %v vs %v", j, reseeded.Weights[j], full.Weights[j])
		}
	}
}
