package monitor

import (
	"math"
	"testing"

	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/synth"
)

func creditFrame(t testing.TB, n int, bias, frac float64, seed uint64) *frame.Frame {
	t.Helper()
	f, err := synth.Credit(synth.CreditConfig{N: n, Bias: bias, GroupBFraction: frac, Seed: seed})
	if err != nil {
		t.Fatalf("synth.Credit: %v", err)
	}
	return f
}

// scaleColumn returns f with column col multiplied by factor — a gross
// numeric distribution shift the KS statistic must catch.
func scaleColumn(t testing.TB, f *frame.Frame, col string, factor float64) *frame.Frame {
	t.Helper()
	scaled := f.MustCol(col).Map(col, func(v float64) float64 { return v * factor })
	out, err := f.Drop(col)
	if err != nil {
		t.Fatalf("Drop(%s): %v", col, err)
	}
	if out, err = out.WithColumn(scaled); err != nil {
		t.Fatalf("WithColumn(%s): %v", col, err)
	}
	return out
}

func TestDetectDriftTableDriven(t *testing.T) {
	baseline := creditFrame(t, 3000, 0, 0.35, 1)
	cases := []struct {
		name        string
		current     *frame.Frame
		wantBreach  bool
		wantColumns map[string]bool // column -> breached
	}{
		{
			// Same generator, different seed: sampling noise only.
			name:       "identical distribution",
			current:    creditFrame(t, 3000, 0, 0.35, 99),
			wantBreach: false,
		},
		{
			// Group mix flips 0.35 -> 0.75: categorical PSI on "group"
			// (and the redlining proxy "neighborhood") must breach.
			name:        "categorical shift",
			current:     creditFrame(t, 3000, 0, 0.75, 7),
			wantBreach:  true,
			wantColumns: map[string]bool{"group": true, "neighborhood": true},
		},
		{
			// Income scaled 1.6x: numeric KS (and PSI) on "income" must
			// breach while untouched columns stay quiet.
			name:        "numeric shift",
			current:     scaleColumn(t, creditFrame(t, 3000, 0, 0.35, 42), "income", 1.6),
			wantBreach:  true,
			wantColumns: map[string]bool{"income": true, "debt_ratio": false},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := DetectDrift(baseline, tc.current, DriftConfig{})
			if err != nil {
				t.Fatalf("DetectDrift: %v", err)
			}
			if rep.Breached != tc.wantBreach {
				t.Errorf("Breached = %v, want %v (max PSI %.4f, max KS %.4f)",
					rep.Breached, tc.wantBreach, rep.MaxPSI, rep.MaxKS)
			}
			got := map[string]ColumnDrift{}
			for _, c := range rep.Columns {
				got[c.Column] = c
			}
			for col, want := range tc.wantColumns {
				cd, ok := got[col]
				if !ok {
					t.Fatalf("column %q missing from drift report", col)
				}
				if cd.Breached != want {
					t.Errorf("column %q breached = %v, want %v (PSI %.4f, KS %.4f)",
						col, cd.Breached, want, cd.PSI, cd.KS)
				}
			}
		})
	}
}

func TestDetectDriftIdenticalFrameIsZero(t *testing.T) {
	f := creditFrame(t, 1000, 1, 0.35, 3)
	rep, err := DetectDrift(f, f, DriftConfig{})
	if err != nil {
		t.Fatalf("DetectDrift: %v", err)
	}
	if rep.Breached {
		t.Errorf("identical frames breached drift: %+v", rep)
	}
	if rep.MaxKS != 0 {
		t.Errorf("identical frames MaxKS = %v, want 0", rep.MaxKS)
	}
	// PSI floored smoothing keeps identical histograms at ~0.
	if rep.MaxPSI > 1e-9 {
		t.Errorf("identical frames MaxPSI = %v, want ~0", rep.MaxPSI)
	}
}

func TestDetectDriftEmptyInputs(t *testing.T) {
	f := creditFrame(t, 100, 0, 0.35, 1)
	for _, pair := range [][2]*frame.Frame{{nil, f}, {f, nil}, {nil, nil}} {
		if _, err := DetectDrift(pair[0], pair[1], DriftConfig{}); err == nil {
			t.Error("DetectDrift accepted nil frame")
		}
	}
}

func TestDetectDriftColumnSubset(t *testing.T) {
	baseline := creditFrame(t, 1500, 0, 0.35, 1)
	current := creditFrame(t, 1500, 0, 0.75, 2)
	rep, err := DetectDrift(baseline, current, DriftConfig{Columns: []string{"income"}})
	if err != nil {
		t.Fatalf("DetectDrift: %v", err)
	}
	if len(rep.Columns) != 1 || rep.Columns[0].Column != "income" {
		t.Fatalf("columns = %+v, want just income", rep.Columns)
	}
}

// TestDetectDriftShardInvariance: the drift report — every PSI, KS,
// and p-value — is bit-for-bit identical at every shard count
// (GOMAXPROCS, swept from 1 to 16), because the sorted samples and
// level counts merge in deterministic chunk order. The 20000-row frames
// span three exec chunks.
func TestDetectDriftShardInvariance(t *testing.T) {
	baseline := creditFrame(t, 20000, 0, 0.35, 1)
	current := creditFrame(t, 20000, 0.8, 0.6, 2)
	setGOMAXPROCS(t, 1)
	want, err := DetectDrift(baseline, current, DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4, 16} {
		setGOMAXPROCS(t, shards)
		got, err := DetectDrift(baseline, current, DriftConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Columns) != len(want.Columns) ||
			math.Float64bits(got.MaxPSI) != math.Float64bits(want.MaxPSI) ||
			math.Float64bits(got.MaxKS) != math.Float64bits(want.MaxKS) ||
			got.Breached != want.Breached {
			t.Fatalf("shards=%d: report head diverged: %+v vs %+v", shards, got, want)
		}
		for i, c := range got.Columns {
			w := want.Columns[i]
			if c.Column != w.Column || c.Breached != w.Breached ||
				math.Float64bits(c.PSI) != math.Float64bits(w.PSI) ||
				math.Float64bits(c.KS) != math.Float64bits(w.KS) ||
				math.Float64bits(c.KSPValue) != math.Float64bits(w.KSPValue) {
				t.Errorf("shards=%d column %q diverged: %+v vs %+v", shards, c.Column, c, w)
			}
		}
	}
}

// TestDetectDriftDTypeSchemaChange: a column that flips from numeric
// to string between baseline and current (e.g. a CSV batch where one
// "income" token is non-numeric) must yield an error entry, not a
// panic mid-ingest.
func TestDetectDriftDTypeSchemaChange(t *testing.T) {
	baseline := creditFrame(t, 200, 0, 0.35, 1)
	stringized := baseline.MustCol("income").Strings()
	current, err := baseline.Drop("income")
	if err != nil {
		t.Fatal(err)
	}
	if current, err = current.WithColumn(frame.NewString("income", stringized)); err != nil {
		t.Fatal(err)
	}
	if _, err := DetectDrift(baseline, current, DriftConfig{}); err == nil {
		t.Fatal("numeric->string schema change should error, not score")
	}
}

func TestKSStatisticKnownShift(t *testing.T) {
	// Two disjoint samples: D must be 1. Identical samples: D = 0.
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{10, 11, 12, 13}
	if d := ksStatistic(a, b); d != 1 {
		t.Errorf("disjoint KS = %v, want 1", d)
	}
	if d := ksStatistic(a, a); d != 0 {
		t.Errorf("identical KS = %v, want 0", d)
	}
}

func TestKSPValueBounds(t *testing.T) {
	if p := ksPValue(0, 100, 100); p != 1 {
		t.Errorf("p(D=0) = %v, want 1", p)
	}
	p := ksPValue(0.5, 500, 500)
	if p < 0 || p > 1e-6 {
		t.Errorf("p(D=0.5, n=500) = %v, want ~0", p)
	}
	pSmall := ksPValue(0.05, 100, 100)
	if pSmall < 0.5 {
		t.Errorf("p(D=0.05, n=100) = %v, want large (not significant)", pSmall)
	}
}

func TestCategoricalPSIVanishingLevelStaysFinite(t *testing.T) {
	a := frame.NewString("a", []string{"x", "x", "y", "y"})
	b := frame.NewString("b", []string{"x", "x", "x", "x"})
	got, err := categoricalPSI(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("PSI with vanished level = %v, want finite", got)
	}
	if got <= DefaultPSIThreshold {
		t.Errorf("PSI with vanished level = %v, want > %v", got, DefaultPSIThreshold)
	}
}

// TestHistSortedEdgeSemantics: the numeric PSI histogram counts only a
// column's finite values, puts a value equal to an edge in the bin that
// edge closes, and leaves the bin between repeated edges — what a
// heavily tied baseline's quantiles produce — empty.
func TestHistSortedEdgeSemantics(t *testing.T) {
	col := frame.NewFloat64("x", []float64{3, 1.5, math.NaN(), 0, 2.5, math.Inf(1), 1, 2, math.Inf(-1)})
	sorted, err := sortedFinite(col)
	if err != nil {
		t.Fatal(err)
	}
	if len(sorted) != 6 {
		t.Fatalf("sortedFinite kept %v, want the 6 finite values", sorted)
	}
	for _, tc := range []struct {
		edges, want []float64
	}{
		// v <= 1: {0, 1}; 1 < v <= 2: {1.5, 2}; v > 2: {2.5, 3}.
		{[]float64{1, 2}, []float64{2, 2, 2}},
		{[]float64{1, 1, 2}, []float64{2, 0, 2, 2}},
		{[]float64{-1, 3}, []float64{0, 6, 0}},
	} {
		got := histSorted(sorted, tc.edges)
		if len(got) != len(tc.want) {
			t.Fatalf("edges %v: %d bins, want %d", tc.edges, len(got), len(tc.want))
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("edges %v: bins %v, want %v", tc.edges, got, tc.want)
				break
			}
		}
	}
}
