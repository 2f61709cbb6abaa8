package monitor

import (
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/rng"
)

// reportJSON marshals a drift report; byte equality of two reports is
// the strongest form of the profiled ≡ recompute contract (every PSI,
// KS, p-value, threshold verdict, and column order bit agrees).
func reportJSON(t testing.TB, rep *DriftReport) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshaling drift report: %v", err)
	}
	return string(b)
}

// setGOMAXPROCS sets GOMAXPROCS, and with it the exec shard count, for
// the rest of the test; the previous value is restored when the test
// ends. GOMAXPROCS is process-wide, so callers must not run in
// parallel with other tests.
func setGOMAXPROCS(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// requireProfiledMatchesRecompute asserts DetectDriftProfiled over a
// fresh profile of baseline produces a byte-identical report to the
// legacy full recompute, at every shard count (GOMAXPROCS) in the
// sweep.
func requireProfiledMatchesRecompute(t *testing.T, baseline, current *frame.Frame, cfg DriftConfig) {
	t.Helper()
	for _, shards := range []int{1, 3, 8} {
		setGOMAXPROCS(t, shards)
		want, werr := DetectDrift(baseline, current, cfg)
		prof, perr := NewBaselineProfile(baseline, cfg)
		if perr != nil {
			t.Fatalf("shards=%d: NewBaselineProfile: %v", shards, perr)
		}
		got, gerr := DetectDriftProfiled(prof, current)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("shards=%d: error mismatch: recompute=%v profiled=%v", shards, werr, gerr)
		}
		if werr != nil {
			if werr.Error() != gerr.Error() {
				t.Fatalf("shards=%d: error text diverged:\nrecompute: %v\nprofiled:  %v", shards, werr, gerr)
			}
			continue
		}
		if w, g := reportJSON(t, want), reportJSON(t, got); w != g {
			t.Fatalf("shards=%d: profiled report diverged from recompute:\nrecompute: %s\nprofiled:  %s", shards, w, g)
		}
		// Belt and braces beyond JSON: the float bits themselves.
		for i := range want.Columns {
			w, g := want.Columns[i], got.Columns[i]
			if math.Float64bits(w.PSI) != math.Float64bits(g.PSI) ||
				math.Float64bits(w.KS) != math.Float64bits(g.KS) ||
				math.Float64bits(w.KSPValue) != math.Float64bits(g.KSPValue) {
				t.Fatalf("shards=%d column %q: float bits diverged: %+v vs %+v", shards, w.Column, w, g)
			}
		}
	}
}

// randomDriftFrame builds an adversarial drift input: a NaN/Inf-laced
// float column, an int64 column, a categorical column drawn from a
// seed-dependent level pool (so baseline and current can have disjoint
// levels), and an all-NaN column that must be skipped entirely.
func randomDriftFrame(src *rng.Source, rows int) *frame.Frame {
	pool := []string{"a", "b", "c", "d", "e", "f"}
	levels := pool[:2+src.Intn(len(pool)-2)]
	num := make([]float64, rows)
	ints := make([]int64, rows)
	cat := make([]string, rows)
	ghost := make([]float64, rows)
	for i := 0; i < rows; i++ {
		switch src.Intn(12) {
		case 0:
			num[i] = math.NaN()
		case 1:
			num[i] = math.Inf(1)
		case 2:
			num[i] = math.Inf(-1)
		default:
			num[i] = src.Normal(float64(src.Intn(3)), 1+src.Float64()*4)
		}
		ints[i] = int64(src.Intn(7)) - 3
		cat[i] = levels[src.Intn(len(levels))]
		ghost[i] = math.NaN()
	}
	return frame.MustNew(
		frame.NewFloat64("num", num),
		frame.NewInt64("count", ints),
		frame.NewString("cat", cat),
		frame.NewFloat64("ghost", ghost),
	)
}

// TestDetectDriftProfiledPropertyRandomFrames is the shard-and-profile
// invariance property test: over randomized frames — NaN/±Inf values,
// int64 columns, disjoint categorical levels, an all-NaN column — the
// profiled path reproduces the legacy recompute byte for byte at every
// shard count, including when one profile is reused across many
// windows.
func TestDetectDriftProfiledPropertyRandomFrames(t *testing.T) {
	src := rng.New(20260730)
	for trial := 0; trial < 12; trial++ {
		baseline := randomDriftFrame(src, 50+src.Intn(400))
		current := randomDriftFrame(src, 1+src.Intn(300))
		requireProfiledMatchesRecompute(t, baseline, current, DriftConfig{})
	}
	// One pinned profile scored against a sequence of windows — the
	// production shape — must match a fresh recompute per window.
	baseline := randomDriftFrame(src, 300)
	prof, err := NewBaselineProfile(baseline, DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 6; trial++ {
		current := randomDriftFrame(src, 1+src.Intn(200))
		want, werr := DetectDrift(baseline, current, DriftConfig{})
		got, gerr := DetectDriftProfiled(prof, current)
		if werr != nil || gerr != nil {
			t.Fatalf("trial %d: recompute=%v profiled=%v", trial, werr, gerr)
		}
		if w, g := reportJSON(t, want), reportJSON(t, got); w != g {
			t.Fatalf("trial %d: reused profile diverged:\nrecompute: %s\nprofiled:  %s", trial, w, g)
		}
	}
}

// TestDetectDriftProfiledMatchesRecomputeOnCredit pins the equivalence
// on the realistic mixed-schema generator the service demos with,
// including heavy categorical and numeric drift.
func TestDetectDriftProfiledMatchesRecomputeOnCredit(t *testing.T) {
	baseline := creditFrame(t, 3000, 0, 0.35, 1)
	for _, tc := range []struct {
		name    string
		current *frame.Frame
	}{
		{"identical distribution", creditFrame(t, 3000, 0, 0.35, 99)},
		{"categorical shift", creditFrame(t, 3000, 0, 0.75, 7)},
		{"numeric shift", scaleColumn(t, creditFrame(t, 3000, 0, 0.35, 42), "income", 1.6)},
		{"self", baseline},
	} {
		t.Run(tc.name, func(t *testing.T) {
			requireProfiledMatchesRecompute(t, baseline, tc.current, DriftConfig{})
		})
	}
}

// TestDetectDriftProfiledColumnSubset: explicit column restrictions —
// including names absent from one or both frames — behave identically
// on both paths.
func TestDetectDriftProfiledColumnSubset(t *testing.T) {
	baseline := creditFrame(t, 1500, 0, 0.35, 1)
	current := creditFrame(t, 1500, 0, 0.75, 2)
	for _, cols := range [][]string{
		{"income"},
		{"income", "group"},
		{"income", "no_such_column", "group"},
		{"no_such_column"},
	} {
		requireProfiledMatchesRecompute(t, baseline, current, DriftConfig{Columns: cols})
	}
}

// TestDetectDriftProfiledSchemaChangeErrors: a numeric column arriving
// as a string column is schema drift; both paths must fail loudly with
// the same message.
func TestDetectDriftProfiledSchemaChangeErrors(t *testing.T) {
	baseline := creditFrame(t, 200, 0, 0.35, 1)
	stringized := baseline.MustCol("income").Strings()
	current, err := baseline.Drop("income")
	if err != nil {
		t.Fatal(err)
	}
	if current, err = current.WithColumn(frame.NewString("income", stringized)); err != nil {
		t.Fatal(err)
	}
	requireProfiledMatchesRecompute(t, baseline, current, DriftConfig{})
}

func TestBaselineProfileValidation(t *testing.T) {
	if _, err := NewBaselineProfile(nil, DriftConfig{}); err == nil {
		t.Error("nil baseline accepted")
	}
	empty := frame.MustNew(frame.NewFloat64("x", nil))
	if _, err := NewBaselineProfile(empty, DriftConfig{}); err == nil {
		t.Error("empty baseline accepted")
	}
	if _, err := DetectDriftProfiled(nil, creditFrame(t, 10, 0, 0.35, 1)); err == nil {
		t.Error("nil profile accepted")
	}
	prof, err := NewBaselineProfile(creditFrame(t, 10, 0, 0.35, 1), DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cur := range []*frame.Frame{nil, frame.MustNew(frame.NewFloat64("x", nil))} {
		if _, err := DetectDriftProfiled(prof, cur); err == nil {
			t.Error("empty current frame accepted")
		}
	}
}

// TestBaselineProfileInfo: the summary counts columns by kind, stays
// JSON-marshalable even with all-NaN columns (non-finite moments are
// omitted), and reports the build cost.
func TestBaselineProfileInfo(t *testing.T) {
	src := rng.New(7)
	prof, err := NewBaselineProfile(randomDriftFrame(src, 250), DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	info := prof.Info()
	if info.Rows != 250 || info.Columns != 4 || info.NumericColumns != 3 || info.CategoricalColumns != 1 {
		t.Errorf("info = %+v, want 250 rows, 4 columns (3 numeric, 1 categorical)", info)
	}
	if info.Bins != DefaultDriftBins {
		t.Errorf("info.Bins = %d, want default %d", info.Bins, DefaultDriftBins)
	}
	if info.BuildMillis < 0 {
		t.Errorf("BuildMillis = %v, want >= 0", info.BuildMillis)
	}
	raw, err := json.Marshal(info)
	if err != nil {
		t.Fatalf("profile info with all-NaN column must marshal: %v", err)
	}
	var round ProfileInfo
	if err := json.Unmarshal(raw, &round); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	for _, ci := range info.ColumnProfiles {
		if ci.Column == "ghost" && (ci.Values != 0 || ci.Mean != nil || ci.StdDev != nil) {
			t.Errorf("all-NaN column profile = %+v, want omitted moments", ci)
		}
		if ci.Column == "cat" && (ci.Kind != "categorical" || ci.Levels < 2 || ci.Values != 250 || ci.Mean != nil) {
			t.Errorf("categorical column profile = %+v", ci)
		}
		if ci.Kind == "numeric" && ci.Values > 1 && (ci.Mean == nil || ci.StdDev == nil || ci.Min == nil || ci.Max == nil) {
			t.Errorf("numeric column %q missing finite moments: %+v", ci.Column, ci)
		}
	}
}
