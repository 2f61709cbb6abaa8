package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanBasics(t *testing.T) {
	approx(t, Mean([]float64{1, 2, 3, 4}), 2.5, 1e-12, "mean")
	if !math.IsNaN(Mean(nil)) {
		t.Error("mean of empty should be NaN")
	}
}

func TestVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, Variance(xs), 32.0/7, 1e-12, "sample variance")
	approx(t, StdDev(xs), math.Sqrt(32.0/7), 1e-12, "stddev")
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("variance of single value should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	approx(t, Min(xs), -1, 0, "min")
	approx(t, Max(xs), 7, 0, "max")
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("min/max of empty should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	approx(t, Quantile(xs, 0), 1, 0, "q0")
	approx(t, Quantile(xs, 1), 5, 0, "q1")
	approx(t, Median(xs), 3, 0, "median odd")
	approx(t, Median([]float64{1, 2, 3, 4}), 2.5, 1e-12, "median even")
	approx(t, Quantile(xs, 0.25), 2, 1e-12, "q25")
	if !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("invalid quantile args should be NaN")
	}
	// Input must not be mutated.
	ys := []float64{3, 1, 2}
	Quantile(ys, 0.5)
	if ys[0] != 3 || ys[1] != 1 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileWithinRange(t *testing.T) {
	check := func(xs []float64, qr uint8) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		q := float64(qr) / 255
		v := Quantile(xs, q)
		return v >= Min(xs)-1e-9 && v <= Max(xs)+1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCovarianceCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	approx(t, Correlation(xs, ys), 1, 1e-12, "perfect positive")
	zs := []float64{10, 8, 6, 4, 2}
	approx(t, Correlation(xs, zs), -1, 1e-12, "perfect negative")
	if !math.IsNaN(Correlation(xs, []float64{1, 1, 1, 1, 1})) {
		t.Error("correlation with constant should be NaN")
	}
	if !math.IsNaN(Covariance(xs, ys[:3])) {
		t.Error("mismatched lengths should be NaN")
	}
	approx(t, Covariance(xs, ys), 5, 1e-12, "covariance")
}

func TestSpearman(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125} // monotone nonlinear
	approx(t, SpearmanCorrelation(xs, ys), 1, 1e-12, "spearman monotone")
	zs := []float64{5, 4, 3, 2, 1}
	approx(t, SpearmanCorrelation(xs, zs), -1, 1e-12, "spearman inverse")
}

func TestSpearmanTies(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	ys := []float64{1, 2, 2, 3}
	approx(t, SpearmanCorrelation(xs, ys), 1, 1e-12, "spearman ties")
}

func TestRankWithTies(t *testing.T) {
	ranks := rankWithTies([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		approx(t, ranks[i], want[i], 1e-12, "rank")
	}
}
