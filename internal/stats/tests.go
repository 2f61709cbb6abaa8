package stats

import (
	"fmt"
	"math"

	"github.com/responsible-data-science/rds/internal/rng"
)

// TestResult is the outcome of a hypothesis test: the test statistic, the
// two-sided p-value, and the degrees of freedom where applicable. Returning
// the p-value (rather than a bare reject/accept bit) is deliberate: the
// paper requires answers to carry accuracy meta-information, and downstream
// multiple-testing correction needs the raw p-values.
type TestResult struct {
	Statistic float64
	PValue    float64
	DF        float64
}

// WelchTTest performs the two-sample Welch t-test (unequal variances) and
// returns the two-sided result. Errors on samples smaller than 2.
func WelchTTest(a, b []float64) (TestResult, error) {
	if len(a) < 2 || len(b) < 2 {
		return TestResult{}, fmt.Errorf("stats: WelchTTest needs >=2 observations per sample, got %d and %d", len(a), len(b))
	}
	ma, mb := Mean(a), Mean(b)
	va, vb := Variance(a), Variance(b)
	na, nb := float64(len(a)), float64(len(b))
	se2 := va/na + vb/nb
	if se2 == 0 {
		// Identical constant samples: no evidence of difference.
		return TestResult{Statistic: 0, PValue: 1, DF: na + nb - 2}, nil
	}
	t := (ma - mb) / math.Sqrt(se2)
	// Welch–Satterthwaite degrees of freedom.
	df := se2 * se2 / ((va*va)/(na*na*(na-1)) + (vb*vb)/(nb*nb*(nb-1)))
	p := 2 * (1 - StudentTCDF(math.Abs(t), df))
	return TestResult{Statistic: t, PValue: clampP(p), DF: df}, nil
}

// TwoProportionZTest tests H0: p1 == p2 given successes/totals of two
// samples, using the pooled standard error. Two-sided.
func TwoProportionZTest(success1, n1, success2, n2 int) (TestResult, error) {
	if n1 <= 0 || n2 <= 0 {
		return TestResult{}, fmt.Errorf("stats: TwoProportionZTest needs positive sample sizes, got %d and %d", n1, n2)
	}
	if success1 < 0 || success1 > n1 || success2 < 0 || success2 > n2 {
		return TestResult{}, fmt.Errorf("stats: successes out of range: %d/%d and %d/%d", success1, n1, success2, n2)
	}
	p1 := float64(success1) / float64(n1)
	p2 := float64(success2) / float64(n2)
	pool := float64(success1+success2) / float64(n1+n2)
	se := math.Sqrt(pool * (1 - pool) * (1/float64(n1) + 1/float64(n2)))
	if se == 0 {
		return TestResult{Statistic: 0, PValue: 1}, nil
	}
	z := (p1 - p2) / se
	p := 2 * (1 - NormalCDF(math.Abs(z)))
	return TestResult{Statistic: z, PValue: clampP(p)}, nil
}

// ChiSquareIndependence tests independence of the rows and columns of a
// contingency table (counts). Rows and columns that are entirely zero are
// an error, as is a ragged table.
func ChiSquareIndependence(table [][]float64) (TestResult, error) {
	r := len(table)
	if r < 2 {
		return TestResult{}, fmt.Errorf("stats: chi-square needs >=2 rows, got %d", r)
	}
	c := len(table[0])
	if c < 2 {
		return TestResult{}, fmt.Errorf("stats: chi-square needs >=2 columns, got %d", c)
	}
	rowSums := make([]float64, r)
	colSums := make([]float64, c)
	var total float64
	for i, row := range table {
		if len(row) != c {
			return TestResult{}, fmt.Errorf("stats: ragged contingency table at row %d", i)
		}
		for j, v := range row {
			if v < 0 || math.IsNaN(v) {
				return TestResult{}, fmt.Errorf("stats: invalid count %v at (%d,%d)", v, i, j)
			}
			rowSums[i] += v
			colSums[j] += v
			total += v
		}
	}
	if total == 0 {
		return TestResult{}, fmt.Errorf("stats: empty contingency table")
	}
	for i, s := range rowSums {
		if s == 0 {
			return TestResult{}, fmt.Errorf("stats: row %d has zero total", i)
		}
	}
	for j, s := range colSums {
		if s == 0 {
			return TestResult{}, fmt.Errorf("stats: column %d has zero total", j)
		}
	}
	var chi2 float64
	for i := range table {
		for j := range table[i] {
			expected := rowSums[i] * colSums[j] / total
			d := table[i][j] - expected
			chi2 += d * d / expected
		}
	}
	df := float64((r - 1) * (c - 1))
	p := 1 - ChiSquareCDF(chi2, df)
	return TestResult{Statistic: chi2, PValue: clampP(p), DF: df}, nil
}

// FisherExact performs Fisher's exact test on a 2x2 table
// [[a b] [c d]] and returns the two-sided p-value (sum of all tables with
// probability <= observed, the standard definition).
func FisherExact(a, b, c, d int) (TestResult, error) {
	if a < 0 || b < 0 || c < 0 || d < 0 {
		return TestResult{}, fmt.Errorf("stats: FisherExact counts must be non-negative")
	}
	n := a + b + c + d
	if n == 0 {
		return TestResult{}, fmt.Errorf("stats: FisherExact empty table")
	}
	r1 := a + b
	c1 := a + c
	logP := func(x int) float64 {
		// Hypergeometric pmf for top-left cell value x.
		return lchoose(r1, x) + lchoose(n-r1, c1-x) - lchoose(n, c1)
	}
	lo := max(0, c1-(n-r1))
	hi := min(r1, c1)
	observed := logP(a)
	var p float64
	const tol = 1e-12
	for x := lo; x <= hi; x++ {
		lp := logP(x)
		if lp <= observed+tol {
			p += math.Exp(lp)
		}
	}
	// Odds ratio as the statistic (with Haldane correction for zeros).
	or := (float64(a) + 0.5) * (float64(d) + 0.5) / ((float64(b) + 0.5) * (float64(c) + 0.5))
	return TestResult{Statistic: or, PValue: clampP(p)}, nil
}

func lchoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	return lgamma(float64(n+1)) - lgamma(float64(k+1)) - lgamma(float64(n-k+1))
}

// PermutationTest estimates the two-sided p-value for a difference of means
// between samples a and b by random relabeling. iters controls the number
// of permutations; the returned p-value includes the +1 smoothing that
// guarantees p > 0 (an exact-test convention that avoids overclaiming
// certainty — FACT Q2 again).
func PermutationTest(a, b []float64, iters int, src *rng.Source) (TestResult, error) {
	if len(a) == 0 || len(b) == 0 {
		return TestResult{}, fmt.Errorf("stats: PermutationTest needs non-empty samples")
	}
	if iters <= 0 {
		return TestResult{}, fmt.Errorf("stats: PermutationTest needs positive iterations")
	}
	observed := math.Abs(Mean(a) - Mean(b))
	pool := append(append([]float64(nil), a...), b...)
	na := len(a)
	extreme := 0
	for i := 0; i < iters; i++ {
		src.Shuffle(len(pool), func(x, y int) { pool[x], pool[y] = pool[y], pool[x] })
		if math.Abs(Mean(pool[:na])-Mean(pool[na:])) >= observed {
			extreme++
		}
	}
	p := (float64(extreme) + 1) / (float64(iters) + 1)
	return TestResult{Statistic: observed, PValue: clampP(p)}, nil
}

func clampP(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
