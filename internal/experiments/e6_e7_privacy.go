package experiments

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/privacy"
	"github.com/responsible-data-science/rds/internal/report"
	"github.com/responsible-data-science/rds/internal/rng"
	"github.com/responsible-data-science/rds/internal/synth"
)

// frameString builds a string series (helper shared by experiments).
func frameString(name string, values []string) *frame.Series {
	return frame.NewString(name, values)
}

// E6PrivacyBudget reproduces the paper's "strict privacy budget" claim:
// error of DP releases scales as 1/eps (Laplace) and the accountant
// refuses queries once the budget is spent.
func E6PrivacyBudget(scale Scale) (*Result, error) {
	reps := scale.pick(100, 500)
	f, err := synth.Hospital(synth.HospitalConfig{N: scale.pick(2000, 5000), Seed: 37})
	if err != nil {
		return nil, err
	}
	los := f.MustCol("length_of_stay").Floats()
	src := rng.New(37)
	var epss, errsLap []float64
	tbl := report.NewTable("E6: DP mean(length_of_stay) error vs epsilon",
		"eps", "laplace_mean_abs_err", "gaussian_mean_abs_err", "err_x_eps")
	headline := map[string]float64{}
	trueMean := mean(los)
	for _, eps := range []float64{0.01, 0.05, 0.2, 1.0, 5.0} {
		var totalLap, totalGauss float64
		for r := 0; r < reps; r++ {
			b, err := privacy.NewBudget(eps+1, 1e-4)
			if err != nil {
				return nil, err
			}
			m, err := privacy.PrivateMean(b, "m", los, 0, 60, eps, src)
			if err != nil {
				return nil, err
			}
			totalLap += math.Abs(m - trueMean)
			// Gaussian comparison at matched eps (valid for eps <= 1).
			if eps <= 1 {
				g, err := privacy.GaussianMechanism(b, "g", trueMean, 60/float64(len(los)), eps, 1e-5, src)
				if err != nil {
					return nil, err
				}
				totalGauss += math.Abs(g - trueMean)
			}
		}
		lap := totalLap / float64(reps)
		gauss := math.NaN()
		if eps <= 1 {
			gauss = totalGauss / float64(reps)
		}
		tbl.AddRow(eps, lap, gauss, lap*eps)
		epss = append(epss, eps)
		errsLap = append(errsLap, lap)
		headline[fmt.Sprintf("eps%.2f/err", eps)] = lap
	}
	var b strings.Builder
	b.WriteString(tbl.Render())
	b.WriteString("\n")
	b.WriteString(report.Series("E6: Laplace error vs eps (figure)", epss, errsLap, "mean abs error"))

	// The accountant's refusal behaviour.
	bud, err := privacy.NewBudget(1.0, 0)
	if err != nil {
		return nil, err
	}
	granted := 0
	for i := 0; i < 10; i++ {
		if _, err := privacy.PrivateCount(bud, "q", 100, 0.3, src); err == nil {
			granted++
		} else if !errors.Is(err, privacy.ErrBudgetExhausted) {
			return nil, err
		}
	}
	fmt.Fprintf(&b, "\nbudget eps=1.0, queries at eps=0.3 each: %d of 10 granted (expected 3)\n", granted)
	headline["granted"] = float64(granted)
	return &Result{
		ID:       "E6",
		Title:    "Confidentiality: analysis under a strict privacy budget (Q3)",
		Output:   b.String(),
		Headline: headline,
	}, nil
}

// E7Anonymity reproduces the data-publishing side of Q3: information loss
// grows with k while re-identification risk falls; Paillier sums are
// exact; polymorphic pseudonyms are unlinkable across domains.
func E7Anonymity(scale Scale) (*Result, error) {
	n := scale.pick(1500, 5000)
	f, err := synth.Hospital(synth.HospitalConfig{N: n, Seed: 41})
	if err != nil {
		return nil, err
	}
	qis := []string{"age", "sex", "zip"}
	baseRisk, err := privacy.ReidentificationRisk(f, qis)
	if err != nil {
		return nil, err
	}
	tbl := report.NewTable("E7: k-anonymity quality vs k (quasi-identifiers age, sex, zip)",
		"k", "classes", "min_class", "information_loss", "reid_risk", "l_diversity")
	tbl.AddRow(1, f.NumRows(), 1, 0.0, baseRisk, 1)
	headline := map[string]float64{"k1/risk": baseRisk}
	for _, k := range []int{2, 5, 10, 25} {
		res, err := privacy.Anonymize(f, privacy.AnonymizeConfig{K: k, QuasiIdentifiers: qis})
		if err != nil {
			return nil, err
		}
		risk, err := privacy.ReidentificationRisk(res.Data, qis)
		if err != nil {
			return nil, err
		}
		l, err := privacy.LDiversity(res.Data, qis, "diagnosis")
		if err != nil {
			return nil, err
		}
		tbl.AddRow(k, res.Classes, res.MinClassSize, res.InformationLoss, risk, l)
		headline[fmt.Sprintf("k%d/loss", k)] = res.InformationLoss
		headline[fmt.Sprintf("k%d/risk", k)] = risk
	}
	var b strings.Builder
	b.WriteString(tbl.Render())

	// Paillier: exactness of the encrypted aggregate.
	key, err := privacy.GeneratePaillier(512)
	if err != nil {
		return nil, err
	}
	charges := f.MustCol("charges").Floats()
	sample := scale.pick(100, 500)
	vals := make([]int64, sample)
	var trueSum int64
	for i := 0; i < sample; i++ {
		vals[i] = int64(charges[i] * 100)
		trueSum += vals[i]
	}
	enc, err := privacy.EncryptedSum(key.Pub, vals)
	if err != nil {
		return nil, err
	}
	dec, err := key.Decrypt(enc)
	if err != nil {
		return nil, err
	}
	exact := 0.0
	if dec.Int64() == trueSum {
		exact = 1
	}
	headline["paillier_exact"] = exact
	fmt.Fprintf(&b, "\nPaillier encrypted sum over %d records: exact=%v\n", sample, exact == 1)

	// Pseudonym unlinkability: same ids, two domains, zero collisions.
	p, err := privacy.NewPseudonymizer([]byte("e7-master-key-0123456789abcdef"))
	if err != nil {
		return nil, err
	}
	ids := make([]string, 1000)
	for i := range ids {
		ids[i] = fmt.Sprintf("patient-%06d", i)
	}
	research := p.PseudonymizeColumn("research", ids)
	billing := p.PseudonymizeColumn("billing", ids)
	collisions := 0
	seen := map[string]bool{}
	for i := range ids {
		if research[i] == billing[i] {
			collisions++
		}
		seen[research[i]] = true
	}
	fmt.Fprintf(&b, "polymorphic pseudonyms: %d cross-domain collisions over %d ids; %d distinct research pseudonyms\n",
		collisions, len(ids), len(seen))
	headline["pseudonym_collisions"] = float64(collisions)
	return &Result{
		ID:       "E7",
		Title:    "Confidentiality: anonymization, pseudonymization, encrypted aggregation (Q3)",
		Output:   b.String(),
		Headline: headline,
	}, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
