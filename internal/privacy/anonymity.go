package privacy

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/responsible-data-science/rds/internal/frame"
)

// AnonymizeConfig controls Mondrian k-anonymization.
type AnonymizeConfig struct {
	K                int      // minimum equivalence-class size (required, >= 2)
	QuasiIdentifiers []string // columns an attacker could link on
	Sensitive        string   // optional: sensitive column for l-diversity reporting
}

// AnonymizeResult is a k-anonymized release plus its quality metrics.
type AnonymizeResult struct {
	Data *frame.Frame // quasi-identifiers generalized to ranges/sets, other columns intact
	// Classes is the number of equivalence classes in the release.
	Classes int
	// MinClassSize is the smallest class (>= K by construction).
	MinClassSize int
	// InformationLoss in [0,1]: mean normalized width of the generalized
	// quasi-identifier ranges (0 = exact values survive, 1 = fully
	// suppressed).
	InformationLoss float64
}

// Anonymize produces a k-anonymous view of f with respect to the quasi-
// identifier columns, using the Mondrian multidimensional partitioning
// algorithm: recursively split the data on the widest quasi-identifier
// while every part keeps at least K rows, then generalize each partition's
// quasi-identifiers to their value range.
//
// Numeric quasi-identifiers generalize to "[lo-hi]" strings; categorical
// ones to a sorted set "{a,b}". Non-quasi-identifier columns pass through
// untouched.
func Anonymize(f *frame.Frame, cfg AnonymizeConfig) (*AnonymizeResult, error) {
	if cfg.K < 2 {
		return nil, fmt.Errorf("privacy: k must be >= 2, got %d", cfg.K)
	}
	if len(cfg.QuasiIdentifiers) == 0 {
		return nil, fmt.Errorf("privacy: no quasi-identifiers given")
	}
	if f.NumRows() < cfg.K {
		return nil, fmt.Errorf("privacy: %d rows cannot be %d-anonymized", f.NumRows(), cfg.K)
	}
	type qiCol struct {
		name    string
		col     *frame.Series
		numeric bool
	}
	qis := make([]qiCol, 0, len(cfg.QuasiIdentifiers))
	for _, name := range cfg.QuasiIdentifiers {
		col, err := f.Col(name)
		if err != nil {
			return nil, err
		}
		if col.NullCount() > 0 {
			return nil, fmt.Errorf("privacy: quasi-identifier %q has nulls; impute or drop first", name)
		}
		numeric := col.DType() == frame.Float64 || col.DType() == frame.Int64
		qis = append(qis, qiCol{name: name, col: col, numeric: numeric})
	}

	// Global spans for information-loss normalization.
	globalSpan := make([]float64, len(qis))
	globalCard := make([]int, len(qis))
	for qi := range qis {
		if qis[qi].numeric {
			lo, hi := math.Inf(1), math.Inf(-1)
			for i := 0; i < f.NumRows(); i++ {
				v := qis[qi].col.Float(i)
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
			globalSpan[qi] = hi - lo
		} else {
			globalCard[qi] = len(qis[qi].col.Levels())
		}
	}

	all := make([]int, f.NumRows())
	for i := range all {
		all[i] = i
	}
	var partitions [][]int
	var split func(rows []int)
	split = func(rows []int) {
		// Choose the quasi-identifier with the widest normalized span.
		bestQI := -1
		bestSpan := 0.0
		for qi := range qis {
			var span float64
			if qis[qi].numeric {
				lo, hi := math.Inf(1), math.Inf(-1)
				for _, r := range rows {
					v := qis[qi].col.Float(r)
					lo = math.Min(lo, v)
					hi = math.Max(hi, v)
				}
				if globalSpan[qi] > 0 {
					span = (hi - lo) / globalSpan[qi]
				}
			} else {
				levels := map[string]bool{}
				for _, r := range rows {
					levels[qis[qi].col.FormatValue(r)] = true
				}
				if globalCard[qi] > 1 {
					span = float64(len(levels)-1) / float64(globalCard[qi]-1)
				}
			}
			if span > bestSpan {
				bestSpan = span
				bestQI = qi
			}
		}
		if bestQI < 0 || len(rows) < 2*cfg.K {
			partitions = append(partitions, rows)
			return
		}
		// Median split on the chosen dimension.
		sorted := append([]int(nil), rows...)
		qi := qis[bestQI]
		sort.SliceStable(sorted, func(a, b int) bool {
			if qi.numeric {
				return qi.col.Float(sorted[a]) < qi.col.Float(sorted[b])
			}
			return qi.col.FormatValue(sorted[a]) < qi.col.FormatValue(sorted[b])
		})
		mid := len(sorted) / 2
		// Move the split point off ties so both halves are well-defined.
		eq := func(a, b int) bool {
			if qi.numeric {
				return qi.col.Float(a) == qi.col.Float(b)
			}
			return qi.col.FormatValue(a) == qi.col.FormatValue(b)
		}
		for mid < len(sorted) && mid > 0 && eq(sorted[mid-1], sorted[mid]) {
			mid++
		}
		if mid < cfg.K || len(sorted)-mid < cfg.K {
			partitions = append(partitions, rows)
			return
		}
		split(sorted[:mid])
		split(sorted[mid:])
	}
	split(all)

	// Generalize each partition.
	n := f.NumRows()
	genCols := make(map[string][]string, len(qis))
	for _, qi := range qis {
		genCols[qi.name] = make([]string, n)
	}
	var totalLoss float64
	minClass := n
	for _, part := range partitions {
		if len(part) < minClass {
			minClass = len(part)
		}
		var partLoss float64
		for qiIdx, qi := range qis {
			var label string
			var loss float64
			if qi.numeric {
				lo, hi := math.Inf(1), math.Inf(-1)
				for _, r := range part {
					v := qi.col.Float(r)
					lo = math.Min(lo, v)
					hi = math.Max(hi, v)
				}
				if lo == hi {
					label = formatNum(lo)
				} else {
					label = "[" + formatNum(lo) + "-" + formatNum(hi) + "]"
				}
				if globalSpan[qiIdx] > 0 {
					loss = (hi - lo) / globalSpan[qiIdx]
				}
			} else {
				levels := map[string]bool{}
				for _, r := range part {
					levels[qi.col.FormatValue(r)] = true
				}
				names := make([]string, 0, len(levels))
				for l := range levels {
					names = append(names, l)
				}
				sort.Strings(names)
				if len(names) == 1 {
					label = names[0]
				} else {
					label = "{" + strings.Join(names, ",") + "}"
				}
				if globalCard[qiIdx] > 1 {
					loss = float64(len(names)-1) / float64(globalCard[qiIdx]-1)
				}
			}
			for _, r := range part {
				genCols[qi.name][r] = label
			}
			partLoss += loss
		}
		totalLoss += partLoss / float64(len(qis)) * float64(len(part))
	}

	out := f
	var err error
	for _, qi := range qis {
		out, err = out.WithColumn(frame.NewString(qi.name, genCols[qi.name]))
		if err != nil {
			return nil, err
		}
	}
	return &AnonymizeResult{
		Data:            out,
		Classes:         len(partitions),
		MinClassSize:    minClass,
		InformationLoss: totalLoss / float64(n),
	}, nil
}

func formatNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// VerifyKAnonymity checks that every combination of the quasi-identifier
// values occurs at least k times, returning the smallest class size.
func VerifyKAnonymity(f *frame.Frame, quasiIdentifiers []string, k int) (minClass int, ok bool, err error) {
	groups, err := f.GroupBy(quasiIdentifiers...)
	if err != nil {
		return 0, false, err
	}
	minClass = math.MaxInt
	for _, g := range groups {
		if g.Rows.NumRows() < minClass {
			minClass = g.Rows.NumRows()
		}
	}
	if len(groups) == 0 {
		return 0, false, fmt.Errorf("privacy: empty frame")
	}
	return minClass, minClass >= k, nil
}

// LDiversity returns the minimum number of distinct sensitive values per
// equivalence class — the release satisfies l-diversity for any l up to
// that number.
func LDiversity(f *frame.Frame, quasiIdentifiers []string, sensitive string) (int, error) {
	if !f.Has(sensitive) {
		return 0, fmt.Errorf("privacy: no sensitive column %q", sensitive)
	}
	groups, err := f.GroupBy(quasiIdentifiers...)
	if err != nil {
		return 0, err
	}
	minL := math.MaxInt
	for _, g := range groups {
		distinct := len(g.Rows.MustCol(sensitive).Levels())
		if distinct < minL {
			minL = distinct
		}
	}
	if len(groups) == 0 {
		return 0, fmt.Errorf("privacy: empty frame")
	}
	return minL, nil
}

// TCloseness returns the maximum total-variation distance between any
// equivalence class's sensitive-value distribution and the global
// distribution. The release satisfies t-closeness for any t at or above
// the returned value.
func TCloseness(f *frame.Frame, quasiIdentifiers []string, sensitive string) (float64, error) {
	col, err := f.Col(sensitive)
	if err != nil {
		return 0, err
	}
	global := map[string]float64{}
	for i := 0; i < col.Len(); i++ {
		global[col.FormatValue(i)]++
	}
	n := float64(col.Len())
	for k := range global {
		global[k] /= n
	}
	groups, err := f.GroupBy(quasiIdentifiers...)
	if err != nil {
		return 0, err
	}
	var worst float64
	for _, g := range groups {
		local := map[string]float64{}
		gcol := g.Rows.MustCol(sensitive)
		for i := 0; i < gcol.Len(); i++ {
			local[gcol.FormatValue(i)]++
		}
		gn := float64(gcol.Len())
		var tv float64
		for k, p := range global {
			tv += math.Abs(p - local[k]/gn)
		}
		for k, c := range local {
			if _, seen := global[k]; !seen {
				tv += c / gn
			}
		}
		tv /= 2
		if tv > worst {
			worst = tv
		}
	}
	return worst, nil
}

// ReidentificationRisk estimates the expected probability that a random
// individual is uniquely linked by the quasi-identifiers: the mean of
// 1/classSize over rows. 1.0 means everyone is unique (fully exposed).
func ReidentificationRisk(f *frame.Frame, quasiIdentifiers []string) (float64, error) {
	groups, err := f.GroupBy(quasiIdentifiers...)
	if err != nil {
		return 0, err
	}
	if f.NumRows() == 0 {
		return 0, fmt.Errorf("privacy: empty frame")
	}
	// Each of a class's members is re-identified with prob 1/size;
	// summed over members that is exactly 1 per class.
	return float64(len(groups)) / float64(f.NumRows()), nil
}
