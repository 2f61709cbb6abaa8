package stats

import (
	"math"
	"testing"

	"github.com/responsible-data-science/rds/internal/rng"
)

func TestMeanCICoverage(t *testing.T) {
	// Empirical coverage of the 95% t-interval should be ~95%.
	src := rng.New(11)
	const trials, n = 2000, 20
	covered := 0
	for i := 0; i < trials; i++ {
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = src.Normal(5, 2)
		}
		iv, err := MeanCI(xs, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Contains(5) {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.93 || rate > 0.97 {
		t.Fatalf("coverage = %v, want ~0.95", rate)
	}
}

func TestMeanCIWidthShrinks(t *testing.T) {
	src := rng.New(12)
	width := func(n int) float64 {
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = src.Norm()
		}
		iv, err := MeanCI(xs, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		return iv.Width()
	}
	if w1, w2 := width(100), width(10000); w2 >= w1 {
		t.Fatalf("CI width did not shrink with n: %v -> %v", w1, w2)
	}
}

func TestMeanCIErrors(t *testing.T) {
	if _, err := MeanCI([]float64{1}, 0.95); err == nil {
		t.Fatal("single observation accepted")
	}
	if _, err := MeanCI([]float64{1, 2}, 1.5); err == nil {
		t.Fatal("bad level accepted")
	}
}

func TestWilsonCIBasics(t *testing.T) {
	iv, err := WilsonCI(50, 100, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Contains(0.5) {
		t.Fatalf("Wilson CI %v does not contain 0.5", iv)
	}
	if iv.Lower < 0.40 || iv.Upper > 0.60 {
		t.Fatalf("Wilson CI too wide: %v", iv)
	}
	// Boundary behaviour.
	iv, err = WilsonCI(0, 20, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lower != 0 || iv.Upper <= 0 || iv.Upper > 0.3 {
		t.Fatalf("Wilson CI at 0 successes: %v", iv)
	}
	iv, err = WilsonCI(20, 20, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Upper != 1 || iv.Lower >= 1 {
		t.Fatalf("Wilson CI at n successes: %v", iv)
	}
}

func TestWilsonCIErrors(t *testing.T) {
	if _, err := WilsonCI(5, 0, 0.95); err == nil {
		t.Fatal("zero n accepted")
	}
	if _, err := WilsonCI(30, 20, 0.95); err == nil {
		t.Fatal("successes > n accepted")
	}
	if _, err := WilsonCI(5, 20, 0); err == nil {
		t.Fatal("bad level accepted")
	}
}

func TestClopperPearsonContainsWilson(t *testing.T) {
	// Clopper-Pearson is conservative: it should (weakly) contain the
	// Wilson interval for moderate cases.
	for _, s := range []int{3, 10, 17} {
		cp, err := ClopperPearsonCI(s, 20, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		w, err := WilsonCI(s, 20, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if cp.Lower > w.Lower+1e-9 || cp.Upper < w.Upper-1e-9 {
			t.Fatalf("CP %v does not contain Wilson %v at s=%d", cp, w, s)
		}
	}
}

func TestClopperPearsonBoundaries(t *testing.T) {
	cp, err := ClopperPearsonCI(0, 10, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Lower != 0 {
		t.Fatalf("CP lower at 0 successes = %v", cp.Lower)
	}
	cp, err = ClopperPearsonCI(10, 10, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Upper != 1 {
		t.Fatalf("CP upper at n successes = %v", cp.Upper)
	}
}

func TestClopperPearsonCoverage(t *testing.T) {
	// Exact interval must achieve at least nominal coverage.
	src := rng.New(13)
	const trials, n = 1000, 30
	const p = 0.3
	covered := 0
	for i := 0; i < trials; i++ {
		s := src.Binomial(n, p)
		iv, err := ClopperPearsonCI(s, n, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Contains(p) {
			covered++
		}
	}
	if rate := float64(covered) / trials; rate < 0.94 {
		t.Fatalf("Clopper-Pearson coverage = %v, want >= 0.95-ish", rate)
	}
}

func TestBootstrapCIMedian(t *testing.T) {
	src := rng.New(14)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = src.Normal(10, 3)
	}
	median := func(xs []float64) float64 { return Quantile(xs, 0.5) }
	iv, err := BootstrapCI(xs, median, 500, 0.95, src)
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Contains(10) {
		t.Fatalf("bootstrap CI %v misses true median 10", iv)
	}
	if iv.Width() > 2 {
		t.Fatalf("bootstrap CI suspiciously wide: %v", iv)
	}
}

func TestBootstrapCIErrors(t *testing.T) {
	src := rng.New(1)
	if _, err := BootstrapCI(nil, Mean, 100, 0.95, src); err == nil {
		t.Fatal("empty sample accepted")
	}
	if _, err := BootstrapCI([]float64{1, 2}, Mean, 5, 0.95, src); err == nil {
		t.Fatal("too few resamples accepted")
	}
	if _, err := BootstrapCI([]float64{1, 2}, Mean, 100, 2, src); err == nil {
		t.Fatal("bad level accepted")
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{Lower: 1, Upper: 3, Level: 0.9}
	approx(t, iv.Width(), 2, 1e-12, "width")
	if !iv.Contains(1) || !iv.Contains(3) || iv.Contains(3.1) {
		t.Fatal("Contains wrong")
	}
	if iv.String() == "" {
		t.Fatal("String empty")
	}
}

func TestStandardError(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	want := StdDev(xs) / math.Sqrt(8)
	approx(t, StandardError(xs), want, 1e-12, "se")
	if !math.IsNaN(StandardError([]float64{1})) {
		t.Fatal("SE of single value should be NaN")
	}
}
