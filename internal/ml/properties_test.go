package ml

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/responsible-data-science/rds/internal/rng"
)

// Property: AUC is invariant under strictly monotone transforms of the
// scores — it is a pure ranking statistic.
func TestAUCMonotoneInvariance(t *testing.T) {
	check := func(seed uint64) bool {
		src := rng.New(seed)
		n := 50 + src.Intn(100)
		yTrue := make([]float64, n)
		scores := make([]float64, n)
		pos := 0
		for i := range yTrue {
			if src.Bernoulli(0.5) {
				yTrue[i] = 1
				pos++
			}
			scores[i] = src.Normal(yTrue[i], 1)
		}
		if pos == 0 || pos == n {
			return true
		}
		a1, err1 := AUC(yTrue, scores)
		transformed := make([]float64, n)
		for i, s := range scores {
			transformed[i] = math.Exp(s/3) + 7 // strictly increasing
		}
		a2, err2 := AUC(yTrue, transformed)
		return err1 == nil && err2 == nil && math.Abs(a1-a2) < 1e-12
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: confusion-matrix cells always partition the sample.
func TestConfusionPartitionProperty(t *testing.T) {
	check := func(seed uint64) bool {
		src := rng.New(seed)
		n := 1 + src.Intn(200)
		yTrue := make([]float64, n)
		yPred := make([]float64, n)
		for i := range yTrue {
			if src.Bernoulli(0.5) {
				yTrue[i] = 1
			}
			if src.Bernoulli(0.5) {
				yPred[i] = 1
			}
		}
		cm, err := Confusion(yTrue, yPred)
		if err != nil {
			return false
		}
		return cm.TP+cm.FP+cm.TN+cm.FN == float64(n)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: flipping all predictions swaps TPR with FNR and accuracy with
// its complement.
func TestConfusionFlipProperty(t *testing.T) {
	check := func(seed uint64) bool {
		src := rng.New(seed)
		n := 10 + src.Intn(100)
		yTrue := make([]float64, n)
		yPred := make([]float64, n)
		flipped := make([]float64, n)
		anyPos, anyNeg := false, false
		for i := range yTrue {
			if src.Bernoulli(0.5) {
				yTrue[i] = 1
				anyPos = true
			} else {
				anyNeg = true
			}
			if src.Bernoulli(0.5) {
				yPred[i] = 1
			}
			flipped[i] = 1 - yPred[i]
		}
		if !anyPos || !anyNeg {
			return true
		}
		a, err1 := Accuracy(yTrue, yPred)
		b, err2 := Accuracy(yTrue, flipped)
		return err1 == nil && err2 == nil && math.Abs(a+b-1) < 1e-12
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the standardizer is idempotent — transforming an already
// standardized dataset changes nothing (up to float error).
func TestStandardizerIdempotent(t *testing.T) {
	check := func(seed uint64) bool {
		src := rng.New(seed)
		n := 10 + src.Intn(50)
		d := &Dataset{Features: []string{"a", "b"}}
		for i := 0; i < n; i++ {
			d.X = append(d.X, []float64{src.Normal(5, 3), src.Normal(-2, 0.5)})
			d.Y = append(d.Y, 0)
		}
		once := standardize(FitStandardizer(d), d)
		twice := standardize(FitStandardizer(once), once)
		for i := range once.X {
			for j := range once.X[i] {
				if math.Abs(once.X[i][j]-twice.X[i][j]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: KFold test folds partition the dataset for any k.
func TestKFoldPartitionProperty(t *testing.T) {
	check := func(seed uint64, kRaw, nRaw uint8) bool {
		n := 4 + int(nRaw)%200
		k := 2 + int(kRaw)%8
		if k > n {
			k = n
		}
		d := &Dataset{Features: []string{"x"}}
		for i := 0; i < n; i++ {
			d.X = append(d.X, []float64{float64(i)})
			d.Y = append(d.Y, 0)
		}
		folds, err := KFold(d, k, rng.New(seed))
		if err != nil {
			return false
		}
		seen := map[float64]int{}
		for _, f := range folds {
			for _, row := range f[1].X {
				seen[row[0]]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
