package ml

import (
	"math"
	"testing"

	"github.com/responsible-data-science/rds/internal/frame"
)

func toyFrame() *frame.Frame {
	return frame.MustNew(
		frame.NewFloat64("income", []float64{10, 20, 30, 40}),
		frame.NewString("region", []string{"n", "s", "n", "e"}),
		frame.NewBool("urban", []bool{true, false, true, true}),
		frame.NewInt64("approved", []int64{1, 0, 1, 0}),
	)
}

func TestFromFrameBasics(t *testing.T) {
	ds, err := FromFrame(toyFrame(), "approved")
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 4 {
		t.Fatalf("N = %d", ds.N())
	}
	// income, region=s, region=e (first level "n" dropped), urban.
	if ds.D() != 4 {
		t.Fatalf("D = %d: %v", ds.D(), ds.Features)
	}
	if ds.Y[0] != 1 || ds.Y[1] != 0 {
		t.Fatal("targets wrong")
	}
	j, err := ds.FeatureIndex("region=s")
	if err != nil {
		t.Fatal(err)
	}
	if ds.X[1][j] != 1 || ds.X[0][j] != 0 {
		t.Fatal("one-hot encoding wrong")
	}
	u, err := ds.FeatureIndex("urban")
	if err != nil {
		t.Fatal(err)
	}
	if ds.X[0][u] != 1 || ds.X[1][u] != 0 {
		t.Fatal("bool encoding wrong")
	}
}

func TestFromFrameExclude(t *testing.T) {
	ds, err := FromFrame(toyFrame(), "approved", "region")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range ds.Features {
		if f == "region=s" || f == "region=e" {
			t.Fatalf("excluded column leaked: %v", ds.Features)
		}
	}
	if _, err := FromFrame(toyFrame(), "approved", "ghost"); err == nil {
		t.Fatal("unknown exclude accepted")
	}
}

func TestFromFrameBoolTarget(t *testing.T) {
	f := frame.MustNew(
		frame.NewFloat64("x", []float64{1, 2}),
		frame.NewBool("y", []bool{true, false}),
	)
	ds, err := FromFrame(f, "y")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Y[0] != 1 || ds.Y[1] != 0 {
		t.Fatal("bool target wrong")
	}
}

func TestFromFrameRejectsStringTarget(t *testing.T) {
	f := frame.MustNew(
		frame.NewFloat64("x", []float64{1}),
		frame.NewString("y", []string{"yes"}),
	)
	if _, err := FromFrame(f, "y"); err == nil {
		t.Fatal("string target accepted")
	}
}

func TestFromFrameRejectsNulls(t *testing.T) {
	x := frame.NewFloat64("x", []float64{1, 2})
	x.SetNull(0)
	f := frame.MustNew(x, frame.NewInt64("y", []int64{0, 1}))
	if _, err := FromFrame(f, "y"); err == nil {
		t.Fatal("null feature accepted")
	}
	y := frame.NewInt64("y", []int64{0, 1})
	y.SetNull(1)
	g := frame.MustNew(frame.NewFloat64("x", []float64{1, 2}), y)
	if _, err := FromFrame(g, "y"); err == nil {
		t.Fatal("null target accepted")
	}
}

func TestFromFrameSkipsConstantStrings(t *testing.T) {
	f := frame.MustNew(
		frame.NewString("const", []string{"same", "same"}),
		frame.NewFloat64("x", []float64{1, 2}),
		frame.NewInt64("y", []int64{0, 1}),
	)
	ds, err := FromFrame(f, "y")
	if err != nil {
		t.Fatal(err)
	}
	if ds.D() != 1 {
		t.Fatalf("constant string column not skipped: %v", ds.Features)
	}
}

func TestValidate(t *testing.T) {
	good := &Dataset{X: [][]float64{{1}, {2}}, Y: []float64{0, 1}, Features: []string{"x"}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Dataset{X: [][]float64{{1}}, Y: []float64{0, 1}, Features: []string{"x"}}
	if bad.Validate() == nil {
		t.Fatal("row/target mismatch accepted")
	}
	nan := &Dataset{X: [][]float64{{math.NaN()}}, Y: []float64{0}, Features: []string{"x"}}
	if nan.Validate() == nil {
		t.Fatal("NaN feature accepted")
	}
	negW := &Dataset{X: [][]float64{{1}}, Y: []float64{0}, Features: []string{"x"}, Weights: []float64{-1}}
	if negW.Validate() == nil {
		t.Fatal("negative weight accepted")
	}
	ragged := &Dataset{X: [][]float64{{1}, {1, 2}}, Y: []float64{0, 1}, Features: []string{"x"}}
	if ragged.Validate() == nil {
		t.Fatal("ragged rows accepted")
	}
}

func TestCloneAndSubsetIndependence(t *testing.T) {
	ds := &Dataset{X: [][]float64{{1}, {2}, {3}}, Y: []float64{0, 1, 0}, Features: []string{"x"}, Weights: []float64{1, 2, 3}}
	c := ds.Clone()
	c.X[0][0] = 99
	c.Weights[0] = 99
	if ds.X[0][0] != 1 || ds.Weights[0] != 1 {
		t.Fatal("Clone shares memory")
	}
	s := ds.Subset([]int{2, 0})
	if s.N() != 2 || s.X[0][0] != 3 || s.Y[1] != 0 || s.Weights[0] != 3 {
		t.Fatal("Subset wrong")
	}
	s.X[0][0] = 42
	if ds.X[2][0] != 3 {
		t.Fatal("Subset shares memory")
	}
}

func TestWeightDefault(t *testing.T) {
	ds := &Dataset{X: [][]float64{{1}}, Y: []float64{0}, Features: []string{"x"}}
	if ds.Weight(0) != 1 {
		t.Fatal("default weight not 1")
	}
}

func TestColumn(t *testing.T) {
	ds := &Dataset{X: [][]float64{{1, 10}, {2, 20}}, Y: []float64{0, 1}, Features: []string{"a", "b"}}
	col := ds.Column(1)
	if col[0] != 10 || col[1] != 20 {
		t.Fatal("Column wrong")
	}
}

// standardize applies s to every row of d through TransformRow.
func standardize(s *Standardizer, d *Dataset) *Dataset {
	out := &Dataset{Y: d.Y, Features: d.Features}
	for _, row := range d.X {
		out.X = append(out.X, s.TransformRow(row))
	}
	return out
}

func TestStandardizer(t *testing.T) {
	ds := &Dataset{
		X:        [][]float64{{1, 100}, {2, 200}, {3, 300}},
		Y:        []float64{0, 1, 0},
		Features: []string{"a", "b"},
	}
	s := FitStandardizer(ds)
	out := standardize(s, ds)
	for j := 0; j < 2; j++ {
		var mean, variance float64
		for i := range out.X {
			mean += out.X[i][j]
		}
		mean /= 3
		for i := range out.X {
			d := out.X[i][j] - mean
			variance += d * d
		}
		variance /= 3
		if math.Abs(mean) > 1e-12 || math.Abs(variance-1) > 1e-12 {
			t.Fatalf("feature %d standardized to mean=%v var=%v", j, mean, variance)
		}
	}
	// Original untouched.
	if ds.X[0][0] != 1 {
		t.Fatal("TransformRow mutated input")
	}
	row := s.TransformRow([]float64{2, 200})
	if math.Abs(row[0]) > 1e-12 {
		t.Fatal("TransformRow wrong")
	}
}

func TestStandardizerConstantFeature(t *testing.T) {
	ds := &Dataset{X: [][]float64{{5}, {5}}, Y: []float64{0, 1}, Features: []string{"c"}}
	s := FitStandardizer(ds)
	out := standardize(s, ds)
	if out.X[0][0] != 0 || math.IsNaN(out.X[1][0]) {
		t.Fatal("constant feature mishandled")
	}
}
