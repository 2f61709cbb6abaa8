package fairness

import (
	"fmt"
	"math"
	"testing"

	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/ml"
	"github.com/responsible-data-science/rds/internal/rng"
)

// referenceEvaluate is the pre-sharding sequential implementation,
// kept verbatim as the oracle: filter each group's rows in order, run
// them through ml.Confusion, and derive the rates. EvaluateSeriesSharded
// must reproduce it bit for bit at every shard count.
func referenceEvaluate(yTrue, yPred []float64, groups []string, protected, reference string) (Report, error) {
	gs := func(name string) (GroupStats, error) {
		var gt, gp []float64
		for i, g := range groups {
			if g != name {
				continue
			}
			gt = append(gt, yTrue[i])
			gp = append(gp, yPred[i])
		}
		if len(gt) == 0 {
			return GroupStats{}, fmt.Errorf("group %q has no rows", name)
		}
		cm, err := ml.Confusion(gt, gp)
		if err != nil {
			return GroupStats{}, err
		}
		var base float64
		for _, y := range gt {
			base += y
		}
		return GroupStats{
			Group: name, N: len(gt), BaseRate: base / float64(len(gt)),
			PositiveRate: cm.PositiveRate(), TPR: cm.Recall(),
			FPR: cm.FalsePositiveRate(), Precision: cm.Precision(),
		}, nil
	}
	prot, err := gs(protected)
	if err != nil {
		return Report{}, err
	}
	ref, err := gs(reference)
	if err != nil {
		return Report{}, err
	}
	r := Report{Protected: prot, Reference: ref}
	r.StatisticalParityDifference = prot.PositiveRate - ref.PositiveRate
	if ref.PositiveRate > 0 {
		r.DisparateImpact = prot.PositiveRate / ref.PositiveRate
	} else if prot.PositiveRate == 0 {
		r.DisparateImpact = 1
	} else {
		r.DisparateImpact = math.Inf(1)
	}
	r.EqualOpportunityDifference = prot.TPR - ref.TPR
	r.EqualizedOddsDifference = math.Max(math.Abs(prot.TPR-ref.TPR), math.Abs(prot.FPR-ref.FPR))
	r.PredictiveParityDifference = prot.Precision - ref.Precision
	return r, nil
}

// eqBits compares floats bitwise, treating all NaN payloads as equal.
func eqBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func eqGroupStats(a, b GroupStats) bool {
	return a.Group == b.Group && a.N == b.N &&
		eqBits(a.BaseRate, b.BaseRate) && eqBits(a.PositiveRate, b.PositiveRate) &&
		eqBits(a.TPR, b.TPR) && eqBits(a.FPR, b.FPR) && eqBits(a.Precision, b.Precision)
}

func eqReport(a, b Report) bool {
	return eqGroupStats(a.Protected, b.Protected) && eqGroupStats(a.Reference, b.Reference) &&
		eqBits(a.StatisticalParityDifference, b.StatisticalParityDifference) &&
		eqBits(a.DisparateImpact, b.DisparateImpact) &&
		eqBits(a.EqualOpportunityDifference, b.EqualOpportunityDifference) &&
		eqBits(a.EqualizedOddsDifference, b.EqualizedOddsDifference) &&
		eqBits(a.PredictiveParityDifference, b.PredictiveParityDifference)
}

// randomCase draws one synthetic evaluation input. Group shares and
// rates vary per seed so degenerate groups (all-positive, all-negative)
// appear across the sweep.
func randomCase(n int, seed uint64) (yTrue, yPred []float64, groups []string) {
	src := rng.New(seed)
	yTrue = make([]float64, n)
	yPred = make([]float64, n)
	groups = make([]string, n)
	names := []string{"A", "B", "C"}
	for i := 0; i < n; i++ {
		groups[i] = names[int(src.Uint64()%3)]
		if src.Bernoulli(0.4) {
			yTrue[i] = 1
		}
		if src.Bernoulli(0.5) {
			yPred[i] = 1
		}
	}
	// Pin at least one row per evaluated group so the oracle never errors.
	if n >= 2 {
		groups[0], groups[n-1] = "A", "B"
	}
	return
}

// TestEvaluateShardInvariance is the merge-correctness property test
// for every fairness metric: for random populations of many sizes —
// including single-row and fewer-rows-than-shards (empty-shard) cases —
// the sharded evaluation of a plain string column at 1 shard, at many
// shards, and the sequential reference implementation all agree bit
// for bit.
func TestEvaluateShardInvariance(t *testing.T) {
	for _, n := range []int{2, 3, 17, 100, 1000, 8192, 8193} {
		for seed := uint64(1); seed <= 5; seed++ {
			yTrue, yPred, groups := randomCase(n, seed*97+uint64(n))
			want, err := referenceEvaluate(yTrue, yPred, groups, "B", "A")
			if err != nil {
				t.Fatalf("n=%d seed=%d: reference: %v", n, seed, err)
			}
			col := frame.NewString("group", groups)
			for _, shards := range []int{1, 2, 4, 16, 64} {
				got, err := EvaluateSeriesSharded(yTrue, yPred, col, "B", "A", shards)
				if err != nil {
					t.Fatalf("n=%d seed=%d shards=%d: %v", n, seed, shards, err)
				}
				if !eqReport(got, want) {
					t.Errorf("n=%d seed=%d shards=%d: sharded report diverged from sequential:\n got %+v\nwant %+v",
						n, seed, shards, got, want)
				}
			}
		}
	}
}

// TestEvaluateSeriesShardedDictColumn: a dictionary-encoded group
// column with null rows evaluates exactly like the rendered strings,
// nulls forming the "" group, at every shard count — including a
// report whose protected group is that "" group.
func TestEvaluateSeriesShardedDictColumn(t *testing.T) {
	yTrue, yPred, groups := randomCase(20000, 31)
	col := frame.NewString("group", groups).Intern()
	if _, _, ok := col.DictView(); !ok {
		t.Fatal("Intern left the group column plain")
	}
	for i := 5; i < len(groups); i += 7 {
		col.SetNull(i)
	}
	rendered := col.Strings()
	for _, pair := range [][2]string{{"B", "A"}, {"", "C"}} {
		want, err := referenceEvaluate(yTrue, yPred, rendered, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 3, 16} {
			got, err := EvaluateSeriesSharded(yTrue, yPred, col, pair[0], pair[1], shards)
			if err != nil {
				t.Fatalf("%q vs %q shards=%d: %v", pair[0], pair[1], shards, err)
			}
			if !eqReport(got, want) {
				t.Errorf("%q vs %q shards=%d: dictionary report diverged from the rendered strings:\n got %+v\nwant %+v",
					pair[0], pair[1], shards, got, want)
			}
		}
	}
}

// TestEvaluateSeriesShardedLengthMismatch: the column-keyed evaluation
// rejects labels, predictions and groups of different lengths, on plain
// and dictionary-encoded columns alike.
func TestEvaluateSeriesShardedLengthMismatch(t *testing.T) {
	plain := frame.NewString("g", []string{"A", "B"})
	for _, col := range []*frame.Series{plain, plain.Intern()} {
		if _, err := EvaluateSeriesSharded([]float64{1}, []float64{1, 0}, col, "B", "A", 0); err == nil {
			t.Error("label/prediction length mismatch accepted")
		}
		if _, err := EvaluateSeriesSharded([]float64{1, 0, 1}, []float64{1, 0, 1}, col, "B", "A", 0); err == nil {
			t.Error("label/group length mismatch accepted")
		}
	}
}

// TestEvaluateShardedEdgeCases covers the degenerate shard layouts the
// planner must keep exact: one-row inputs and error paths.
func TestEvaluateShardedEdgeCases(t *testing.T) {
	// A single row can only populate one group; the other must error
	// identically at every shard count.
	for _, shards := range []int{1, 8} {
		_, err := EvaluateSeriesSharded([]float64{1}, []float64{1}, frame.NewString("g", []string{"A"}), "B", "A", shards)
		if err == nil {
			t.Fatalf("shards=%d: single-row missing group should error", shards)
		}
	}
	// Non-binary labels are rejected, and only when they sit in an
	// evaluated group.
	yTrue := []float64{1, 2, 0}
	yPred := []float64{1, 1, 0}
	groups := frame.NewString("g", []string{"A", "C", "B"})
	for _, shards := range []int{1, 4} {
		if _, err := EvaluateSeriesSharded(yTrue, yPred, groups, "B", "A", shards); err != nil {
			t.Errorf("shards=%d: invalid row in unevaluated group C should be skipped: %v", shards, err)
		}
		if _, err := EvaluateSeriesSharded(yTrue, yPred, groups, "C", "A", shards); err == nil {
			t.Errorf("shards=%d: invalid row in evaluated group C should error", shards)
		}
	}
}
