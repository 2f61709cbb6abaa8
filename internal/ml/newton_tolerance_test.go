package ml_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/responsible-data-science/rds/internal/fairness"
	"github.com/responsible-data-science/rds/internal/ml"
	"github.com/responsible-data-science/rds/internal/rng"
	"github.com/responsible-data-science/rds/internal/synth"
)

// creditSplit encodes synth.Credit (bias 1) as the audit does and
// splits it 70/30 by a permutation drawn from seed. With reweigh set,
// the training rows carry the audit's Kamiran-Calders weights.
func creditSplit(t *testing.T, n int, seed uint64, reweigh bool) (train, test *ml.Dataset) {
	t.Helper()
	f, err := synth.Credit(synth.CreditConfig{N: n, Bias: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ml.FromFrame(f, "approved", "group")
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.New(seed).Perm(ds.N())
	nTest := int(0.3 * float64(ds.N()))
	train, test = ds.Subset(perm[nTest:]), ds.Subset(perm[:nTest])
	if reweigh {
		groups := f.MustCol("group").Strings()
		trainGroups := make([]string, train.N())
		for i, idx := range perm[nTest:] {
			trainGroups[i] = groups[idx]
		}
		if train.Weights, err = fairness.Reweigh(train.Y, trainGroups); err != nil {
			t.Fatal(err)
		}
	}
	return train, test
}

// heldOut scores m on test: accuracy at the 0.5 cut, AUC and log-loss.
func heldOut(t *testing.T, m ml.Classifier, test *ml.Dataset) (acc, auc, logLoss float64) {
	t.Helper()
	probs := ml.PredictProbaAll(m, test.X)
	var err error
	if acc, err = ml.Accuracy(test.Y, ml.PredictAll(m, test.X)); err != nil {
		t.Fatal(err)
	}
	if auc, err = ml.AUC(test.Y, probs); err != nil {
		t.Fatal(err)
	}
	if logLoss, err = ml.LogLoss(test.Y, probs); err != nil {
		t.Fatal(err)
	}
	return acc, auc, logLoss
}

// TestNewtonMatchesSGDWithinTolerance replaces bit identity with the
// minibatch SGD trainer by tolerances over the audit's data: on held-out
// rows, accuracy and AUC within 0.01 of SGD at the audit's 40 epochs
// and log-loss at most 0.005 higher, with a training objective no
// higher than the objective at SGD's weights.
func TestNewtonMatchesSGDWithinTolerance(t *testing.T) {
	for _, n := range []int{2000, 20000} {
		for _, reweigh := range []bool{false, true} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("n=%d/reweigh=%v/seed=%d", n, reweigh, seed), func(t *testing.T) {
					train, test := creditSplit(t, n, seed, reweigh)
					newton, err := ml.TrainLogistic(train, ml.LogisticConfig{Epochs: 40})
					if err != nil {
						t.Fatal(err)
					}
					sgd := ml.TrainLogisticSGD(train, ml.SGDConfig{Epochs: 40, Seed: seed})
					accN, aucN, llN := heldOut(t, newton, test)
					accS, aucS, llS := heldOut(t, sgd, test)
					t.Logf("accuracy %+.4f, AUC %+.4f, log-loss %+.4f against SGD", accN-accS, aucN-aucS, llN-llS)
					if math.Abs(accN-accS) > 0.01 {
						t.Errorf("accuracy %.4f, SGD %.4f", accN, accS)
					}
					if math.Abs(aucN-aucS) > 0.01 {
						t.Errorf("AUC %.4f, SGD %.4f", aucN, aucS)
					}
					if llN > llS+0.005 {
						t.Errorf("log-loss %.4f, SGD %.4f", llN, llS)
					}
					if objN, objS := ml.LogisticObjective(train, newton, 0), ml.LogisticObjective(train, sgd, 0); objN > objS {
						t.Errorf("training objective %.10g above %.10g at SGD's weights", objN, objS)
					}
				})
			}
		}
	}
}

// TestLogisticOrderInvariance is the property bit identity cannot give
// SGD: permuting the training rows, weights along, moves no weight or
// bias by more than 1e-9 relative and flips no held-out prediction.
func TestLogisticOrderInvariance(t *testing.T) {
	for _, n := range []int{2000, 20000} {
		for _, reweigh := range []bool{false, true} {
			train, test := creditSplit(t, n, 1, reweigh)
			base, err := ml.TrainLogistic(train, ml.LogisticConfig{Epochs: 40})
			if err != nil {
				t.Fatal(err)
			}
			want := ml.PredictAll(base, test.X)
			worst := 0.0
			for perm := uint64(1); perm <= 3; perm++ {
				shuffled := train.Subset(rng.New(100 + perm).Perm(train.N()))
				m, err := ml.TrainLogistic(shuffled, ml.LogisticConfig{Epochs: 40})
				if err != nil {
					t.Fatal(err)
				}
				for j := range base.Weights {
					d := relDiff(m.Weights[j], base.Weights[j])
					if d > 1e-9 {
						t.Errorf("n=%d reweigh=%v perm %d: weight %d moved %.3g relative", n, reweigh, perm, j, d)
					}
					worst = math.Max(worst, d)
				}
				if d := relDiff(m.Bias, base.Bias); d > 1e-9 {
					t.Errorf("n=%d reweigh=%v perm %d: bias moved %.3g relative", n, reweigh, perm, d)
				}
				for i, p := range ml.PredictAll(m, test.X) {
					if p != want[i] {
						t.Errorf("n=%d reweigh=%v perm %d: test row %d flipped", n, reweigh, perm, i)
						break
					}
				}
			}
			t.Logf("n=%d reweigh=%v: largest relative weight move %.3g", n, reweigh, worst)
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}
