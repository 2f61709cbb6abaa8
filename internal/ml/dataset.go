// Package ml implements the machine-learning substrate of the toolkit:
// dataset encoding from frames, linear and logistic regression, CART
// decision trees, naive Bayes, k-nearest-neighbour, a bagged ensemble used
// as the "black box" in transparency experiments, evaluation metrics, and
// cross-validation. Models support per-sample weights, which is what
// fairness pre-processing (reweighing) plugs into.
//
// Everything is implemented from first principles on the standard library;
// the paper's point is that pipeline safeguards must wrap the *whole*
// model lifecycle, which requires the models to live inside the toolkit
// rather than behind an external service.
package ml

import (
	"fmt"
	"math"

	"github.com/responsible-data-science/rds/internal/frame"
)

// Dataset is a dense numeric design matrix with a binary or continuous
// target and optional per-sample weights.
type Dataset struct {
	X        [][]float64 // n rows, d columns
	Y        []float64   // n targets
	Features []string    // d column names
	Weights  []float64   // nil means uniform
}

// N returns the number of rows.
func (d *Dataset) N() int { return len(d.X) }

// D returns the number of features.
func (d *Dataset) D() int {
	if len(d.X) == 0 {
		return len(d.Features)
	}
	return len(d.X[0])
}

// Weight returns the weight of row i (1 when unweighted).
func (d *Dataset) Weight(i int) float64 {
	if d.Weights == nil {
		return 1
	}
	return d.Weights[i]
}

// Validate checks the structural invariants of the dataset.
func (d *Dataset) Validate() error {
	n := len(d.X)
	if len(d.Y) != n {
		return fmt.Errorf("ml: %d rows but %d targets", n, len(d.Y))
	}
	if d.Weights != nil && len(d.Weights) != n {
		return fmt.Errorf("ml: %d rows but %d weights", n, len(d.Weights))
	}
	width := len(d.Features)
	for i, row := range d.X {
		if len(row) != width {
			return fmt.Errorf("ml: row %d has %d features, want %d", i, len(row), width)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ml: row %d feature %d is %v", i, j, v)
			}
		}
	}
	for i, w := range d.Weights {
		if w < 0 || math.IsNaN(w) {
			return fmt.Errorf("ml: weight %d is invalid (%v)", i, w)
		}
	}
	return nil
}

// Clone returns a deep copy.
func (d *Dataset) Clone() *Dataset {
	c := &Dataset{
		Y:        append([]float64(nil), d.Y...),
		Features: append([]string(nil), d.Features...),
	}
	c.X = make([][]float64, len(d.X))
	for i, row := range d.X {
		c.X[i] = append([]float64(nil), row...)
	}
	if d.Weights != nil {
		c.Weights = append([]float64(nil), d.Weights...)
	}
	return c
}

// Subset returns the rows at idx as a new dataset (rows copied into one
// allocation).
func (d *Dataset) Subset(idx []int) *Dataset {
	s := &Dataset{Features: append([]string(nil), d.Features...)}
	s.X = rowViews(make([]float64, len(idx)*d.D()), len(idx))
	s.Y = make([]float64, len(idx))
	for j, i := range idx {
		copy(s.X[j], d.X[i])
		s.Y[j] = d.Y[i]
	}
	if d.Weights != nil {
		s.Weights = make([]float64, len(idx))
		for j, i := range idx {
			s.Weights[j] = d.Weights[i]
		}
	}
	return s
}

// rowViews splits a row-major matrix into n row slices. Each row's
// capacity ends with the row, so appending to one cannot overwrite the
// next.
func rowViews(flat []float64, n int) [][]float64 {
	rows := make([][]float64, n)
	if n == 0 {
		return rows
	}
	dim := len(flat) / n
	for i := range rows {
		rows[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return rows
}

// FeatureIndex returns the column index of the named feature, or an error.
func (d *Dataset) FeatureIndex(name string) (int, error) {
	for i, f := range d.Features {
		if f == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("ml: no feature %q", name)
}

// Column returns a copy of feature column j.
func (d *Dataset) Column(j int) []float64 {
	out := make([]float64, len(d.X))
	for i, row := range d.X {
		out[i] = row[j]
	}
	return out
}

// FromFrame converts a frame into a Dataset. target names the label column
// (numeric or bool). Numeric feature columns pass through; string columns
// are one-hot encoded as name=level (dropping the first level as the
// reference, avoiding collinearity); bool columns become 0/1. Columns
// listed in exclude are skipped — pipelines use this to keep the sensitive
// attribute out of the design matrix while retaining it for auditing.
func FromFrame(f *frame.Frame, target string, exclude ...string) (*Dataset, error) {
	tcol, err := f.Col(target)
	if err != nil {
		return nil, err
	}
	skip := map[string]bool{target: true}
	for _, e := range exclude {
		if !f.Has(e) {
			return nil, fmt.Errorf("ml: exclude column %q not in frame", e)
		}
		skip[e] = true
	}
	n := f.NumRows()
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		if tcol.IsNull(i) {
			return nil, fmt.Errorf("ml: target %q has null at row %d", target, i)
		}
		switch tcol.DType() {
		case frame.Bool:
			if tcol.Boolv(i) {
				y[i] = 1
			}
		case frame.Float64, frame.Int64:
			y[i] = tcol.Float(i)
		default:
			return nil, fmt.Errorf("ml: target %q must be numeric or bool, is %s", target, tcol.DType())
		}
	}

	var features []string
	var columns [][]float64
	for _, name := range f.Names() {
		if skip[name] {
			continue
		}
		col := f.MustCol(name)
		switch col.DType() {
		case frame.Float64, frame.Int64:
			vals := make([]float64, n)
			for i := 0; i < n; i++ {
				if col.IsNull(i) {
					return nil, fmt.Errorf("ml: feature %q has null at row %d (impute before modeling)", name, i)
				}
				vals[i] = col.Float(i)
			}
			features = append(features, name)
			columns = append(columns, vals)
		case frame.Bool:
			vals := make([]float64, n)
			for i := 0; i < n; i++ {
				if col.Boolv(i) {
					vals[i] = 1
				}
			}
			features = append(features, name)
			columns = append(columns, vals)
		case frame.String:
			levels := col.Levels()
			if len(levels) < 2 {
				continue // constant column carries no information
			}
			oneHot := make(map[string][]float64, len(levels)-1)
			for _, lv := range levels[1:] {
				vals := make([]float64, n)
				oneHot[lv] = vals
				features = append(features, name+"="+lv)
				columns = append(columns, vals)
			}
			for i := 0; i < n; i++ {
				if vals, ok := oneHot[col.Str(i)]; ok && !col.IsNull(i) {
					vals[i] = 1
				}
			}
		}
	}
	ds := &Dataset{Features: features, Y: y}
	ds.X = rowViews(make([]float64, n*len(columns)), n)
	for i, row := range ds.X {
		for j, c := range columns {
			row[j] = c[i]
		}
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// Standardizer rescales features to zero mean and unit variance. Fit on
// training data, apply to both splits — fitting on the full dataset leaks
// test information, one of the quiet accuracy sins of Q2.
type Standardizer struct {
	Mean  []float64
	Scale []float64
}

// FitStandardizer computes per-feature means and scales from the dataset.
func FitStandardizer(d *Dataset) *Standardizer {
	dim := d.D()
	s := &Standardizer{Mean: make([]float64, dim), Scale: make([]float64, dim)}
	n := float64(d.N())
	if n == 0 {
		for j := range s.Scale {
			s.Scale[j] = 1
		}
		return s
	}
	for _, row := range d.X {
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range d.X {
		for j, v := range row {
			dlt := v - s.Mean[j]
			s.Scale[j] += dlt * dlt
		}
	}
	for j := range s.Scale {
		s.Scale[j] = math.Sqrt(s.Scale[j] / n)
		if s.Scale[j] == 0 {
			s.Scale[j] = 1 // constant feature: leave centred
		}
	}
	return s
}

// TransformRow standardizes a single feature vector in place-copy style.
func (s *Standardizer) TransformRow(x []float64) []float64 {
	out := make([]float64, len(x))
	for j := range x {
		out[j] = (x[j] - s.Mean[j]) / s.Scale[j]
	}
	return out
}
