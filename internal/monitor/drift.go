package monitor

import (
	"fmt"
	"math"
	"sort"

	"github.com/responsible-data-science/rds/internal/exec"
	"github.com/responsible-data-science/rds/internal/frame"
)

// Default drift thresholds. PSI 0.2 is the conventional "significant
// shift, investigate" boundary from credit-scoring practice; a
// two-sample KS statistic of 0.15 on windows of hundreds of rows is a
// gross distributional change, far past sampling noise.
const (
	DefaultPSIThreshold = 0.2
	DefaultKSThreshold  = 0.15
	// DefaultDriftBins is the histogram resolution for PSI on numeric
	// columns (deciles of the baseline).
	DefaultDriftBins = 10
	// psiFloor is the smoothing floor applied to bin proportions so a
	// level that vanishes from one side yields a large-but-finite PSI
	// instead of +Inf.
	psiFloor = 1e-4
)

// DriftConfig parameterizes baseline-vs-current drift scoring. Zero
// values select the package defaults.
type DriftConfig struct {
	// PSIThreshold breaches a column when its population stability
	// index exceeds it (default 0.2).
	PSIThreshold float64 `json:"psi_threshold,omitempty"`
	// KSThreshold breaches a numeric column when the two-sample
	// Kolmogorov-Smirnov statistic exceeds it (default 0.15).
	KSThreshold float64 `json:"ks_threshold,omitempty"`
	// Bins is the PSI histogram resolution for numeric columns
	// (default 10, i.e. baseline deciles).
	Bins int `json:"bins,omitempty"`
	// Columns restricts scoring to the named columns (default: every
	// column present in both frames).
	Columns []string `json:"columns,omitempty"`
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.PSIThreshold <= 0 {
		c.PSIThreshold = DefaultPSIThreshold
	}
	if c.KSThreshold <= 0 {
		c.KSThreshold = DefaultKSThreshold
	}
	if c.Bins <= 1 {
		c.Bins = DefaultDriftBins
	}
	return c
}

// ColumnDrift scores one column's baseline-vs-current shift.
type ColumnDrift struct {
	Column string `json:"column"`
	// PSI is the population stability index over baseline-decile bins
	// (numeric) or levels (categorical).
	PSI float64 `json:"psi"`
	// KS is the two-sample Kolmogorov-Smirnov statistic; 0 for
	// categorical columns (PSI covers them).
	KS float64 `json:"ks"`
	// KSPValue is the asymptotic p-value of KS (1 when KS is not
	// computed).
	KSPValue float64 `json:"ks_p_value"`
	// Breached reports whether either statistic crossed its threshold.
	Breached bool `json:"breached"`
}

// DriftReport is the full baseline-vs-current comparison for one window.
type DriftReport struct {
	Columns []ColumnDrift `json:"columns"`
	MaxPSI  float64       `json:"max_psi"`
	MaxKS   float64       `json:"max_ks"`
	// Breached reports whether any column breached a threshold.
	Breached bool `json:"breached"`
}

// DetectDrift scores the shift of current against baseline column by
// column: PSI for every column (baseline-decile bins for numeric, level
// histograms for categorical) and the two-sample KS statistic for
// numeric columns. Columns missing from either frame are skipped.
//
// The per-column scans route through the sharded execution engine
// (internal/exec): numeric columns are sorted via parallel chunk sorts
// (one pass serves the KS statistic, the PSI bin edges, and the PSI
// bin counts by binary search), categorical columns go through
// mergeable level counts. Scores are identical at every shard count
// (GOMAXPROCS), so a re-audit on a differently provisioned host
// reproduces the same drift report bit for bit.
func DetectDrift(baseline, current *frame.Frame, cfg DriftConfig) (*DriftReport, error) {
	if baseline == nil || current == nil || baseline.NumRows() == 0 || current.NumRows() == 0 {
		return nil, fmt.Errorf("monitor: drift detection needs non-empty baseline and current frames")
	}
	cfg = cfg.withDefaults()
	cols := cfg.Columns
	if len(cols) == 0 {
		for _, name := range baseline.Names() {
			if current.Has(name) {
				cols = append(cols, name)
			}
		}
	}
	rep := &DriftReport{}
	for _, name := range cols {
		if !baseline.Has(name) || !current.Has(name) {
			continue
		}
		b := baseline.MustCol(name)
		c := current.MustCol(name)
		cd := ColumnDrift{Column: name, KSPValue: 1}
		switch b.DType() {
		case frame.Float64, frame.Int64:
			// A column that was numeric at the baseline but arrives
			// with another dtype is schema drift, not a distribution
			// to score; fail loudly so the window records the error
			// instead of panicking on a string-typed Floats().
			if ct := c.DType(); ct != frame.Float64 && ct != frame.Int64 {
				return nil, fmt.Errorf("monitor: drift: column %q changed type %s -> %s since the baseline",
					name, b.DType(), ct)
			}
			bv, err := sortedFinite(b)
			if err != nil {
				return nil, err
			}
			cv, err := sortedFinite(c)
			if err != nil {
				return nil, err
			}
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			cd.PSI = numericPSI(bv, cv, cfg.Bins)
			cd.KS = ksStatistic(bv, cv)
			cd.KSPValue = ksPValue(cd.KS, len(bv), len(cv))
		default:
			psiVal, err := categoricalPSI(b, c)
			if err != nil {
				return nil, err
			}
			cd.PSI = psiVal
		}
		rep.add(cd, cfg)
	}
	return rep, nil
}

// add files one column score into the report, applying the thresholds
// and folding the maxima — shared by the recompute (DetectDrift) and
// profiled (DetectDriftProfiled) paths so their grading cannot differ.
func (r *DriftReport) add(cd ColumnDrift, cfg DriftConfig) {
	cd.Breached = cd.PSI > cfg.PSIThreshold || cd.KS > cfg.KSThreshold
	r.Columns = append(r.Columns, cd)
	r.MaxPSI = math.Max(r.MaxPSI, cd.PSI)
	r.MaxKS = math.Max(r.MaxKS, cd.KS)
	r.Breached = r.Breached || cd.Breached
}

// sortedFinite extracts a column's finite values, sorted by parallel
// chunk sorts and one deterministic merge.
func sortedFinite(s *frame.Series) ([]float64, error) {
	vals := s.Floats()
	st, err := exec.RunOne(len(vals), exec.Options{}, exec.NewSorted(vals, true))
	if err != nil {
		return nil, fmt.Errorf("monitor: drift sort: %w", err)
	}
	return st.(*exec.Sorted).Values(), nil
}

// numericPSI bins both samples by the baseline's quantile edges and
// sums (p-q)·ln(p/q) over bins. Inputs must be sorted (the merged
// output of the exec sort kernel), so each bin count is a difference
// of binary-search positions — no further pass over the data. Bin i
// holds values v with edges[i-1] < v <= edges[i].
func numericPSI(baseline, current []float64, bins int) float64 {
	edges := psiEdges(baseline, bins)
	return psi(histSorted(baseline, edges), histSorted(current, edges))
}

// psiEdges returns the baseline's bins-quantile bin edges (bins - 1 of
// them) over a non-empty sorted sample. Shared by the recompute path
// and the baseline-profile build, so precomputed edges are the exact
// edges DetectDrift would re-derive.
func psiEdges(baseline []float64, bins int) []float64 {
	edges := make([]float64, 0, bins-1)
	for i := 1; i < bins; i++ {
		q := float64(i) / float64(bins)
		idx := int(q*float64(len(baseline)-1) + 0.5)
		edges = append(edges, baseline[idx])
	}
	return edges
}

// histSorted counts a sorted sample into len(edges)+1 bins via binary
// searches: bin i is the number of values in (edges[i-1], edges[i]].
func histSorted(sorted, edges []float64) []float64 {
	counts := make([]float64, len(edges)+1)
	prev := 0
	for i, e := range edges {
		// First index with sorted[j] > e == count of values <= e.
		hi := sort.Search(len(sorted), func(j int) bool { return sorted[j] > e })
		counts[i] = float64(hi - prev)
		prev = hi
	}
	counts[len(edges)] = float64(len(sorted) - prev)
	return counts
}

// categoricalPSI computes PSI over mergeable level counts of both
// sides, folded over the sorted union of levels so the float result is
// deterministic. The kernels tally dictionary-encoded columns by int32
// code — no per-row string materialization or map lookup.
func categoricalPSI(baseline, current *frame.Series) (float64, error) {
	bs, err := exec.RunOne(baseline.Len(), exec.Options{}, exec.NewLevelsSeries(baseline))
	if err != nil {
		return 0, fmt.Errorf("monitor: drift levels: %w", err)
	}
	cs, err := exec.RunOne(current.Len(), exec.Options{}, exec.NewLevelsSeries(current))
	if err != nil {
		return 0, fmt.Errorf("monitor: drift levels: %w", err)
	}
	return psiLevels(bs.(*exec.Levels), cs.(*exec.Levels)), nil
}

// psiLevels folds two mergeable level-count states into PSI over the
// sorted union of their levels. Shared by the recompute path and the
// profiled path (which keeps the baseline side precomputed), so the
// float fold order — and therefore the score bits — cannot differ
// between them.
func psiLevels(bl, cl *exec.Levels) float64 {
	union := map[string]bool{}
	for _, k := range bl.Keys() {
		union[k] = true
	}
	for _, k := range cl.Keys() {
		union[k] = true
	}
	keys := make([]string, 0, len(union))
	for k := range union {
		keys = append(keys, k)
	}
	// Keys() is sorted per side; the union needs one more sort for a
	// deterministic fold order.
	sort.Strings(keys)
	a := make([]float64, len(keys))
	b := make([]float64, len(keys))
	for i, k := range keys {
		a[i] = float64(bl.Counts[k])
		b[i] = float64(cl.Counts[k])
	}
	return psi(a, b)
}

// psi folds two aligned histograms into the population stability index,
// with proportions floored at psiFloor so empty bins stay finite.
func psi(a, b []float64) float64 {
	// Pad to equal length (levels seen on one side only).
	for len(a) < len(b) {
		a = append(a, 0)
	}
	for len(b) < len(a) {
		b = append(b, 0)
	}
	var na, nb float64
	for i := range a {
		na += a[i]
		nb += b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	var out float64
	for i := range a {
		p := math.Max(a[i]/na, psiFloor)
		q := math.Max(b[i]/nb, psiFloor)
		out += (p - q) * math.Log(p/q)
	}
	return out
}

// ksStatistic is the two-sample Kolmogorov-Smirnov statistic
// D = sup |F_a - F_b| over sorted samples. Both cursors advance through
// every copy of the current value before the CDF gap is measured, so
// tied (discrete) data — binary labels, small counts — scores 0 for
// identical samples instead of an artifact of intra-tie ordering.
func ksStatistic(a, b []float64) float64 {
	var d float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		v := math.Min(a[i], b[j])
		for i < len(a) && a[i] == v {
			i++
		}
		for j < len(b) && b[j] == v {
			j++
		}
		diff := math.Abs(float64(i)/float64(len(a)) - float64(j)/float64(len(b)))
		d = math.Max(d, diff)
	}
	return d
}

// ksPValue is the asymptotic two-sample KS p-value
// (Kolmogorov distribution with the finite-sample correction of
// Stephens 1970).
func ksPValue(d float64, n, m int) float64 {
	if d <= 0 {
		return 1
	}
	ne := float64(n) * float64(m) / float64(n+m)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	// Alternating series; 100 terms is far past convergence.
	var sum float64
	for k := 1; k <= 100; k++ {
		term := math.Exp(-2 * lambda * lambda * float64(k) * float64(k))
		if k%2 == 1 {
			sum += term
		} else {
			sum -= term
		}
		if term < 1e-12 {
			break
		}
	}
	p := 2 * sum
	return math.Max(0, math.Min(1, p))
}
