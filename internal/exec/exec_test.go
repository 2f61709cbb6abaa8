package exec

import (
	"math"
	"sync"
	"testing"

	"github.com/responsible-data-science/rds/internal/frame"
)

// countState counts rows and records the chunk extents it saw.
type countState struct {
	mu     sync.Mutex
	n      int
	chunks [][2]int
}

func (c *countState) Update(lo, hi int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n += hi - lo
	c.chunks = append(c.chunks, [2]int{lo, hi})
}

func (c *countState) Merge(other State) {
	o := other.(*countState)
	c.n += o.n
	c.chunks = append(c.chunks, o.chunks...)
}

func countKernel() (Kernel, *[]*countState) {
	var made []*countState
	var mu sync.Mutex
	return Kernel{Name: "count", New: func() State {
		s := &countState{}
		mu.Lock()
		made = append(made, s)
		mu.Unlock()
		return s
	}}, &made
}

func TestRunCoversEveryRowOnce(t *testing.T) {
	for _, tc := range []struct{ n, shards, chunk int }{
		{0, 1, 100},
		{1, 4, 100},   // single row, empty shards
		{5, 8, 2},     // more shards than full chunks
		{100, 1, 7},   // sequential
		{100, 3, 7},   // ragged tail chunk
		{100, 16, 1},  // one-row chunks
		{8192, 4, 0},  // exactly one default chunk
		{10000, 4, 0}, // default chunking, ragged tail
	} {
		k, _ := countKernel()
		states, err := Run(tc.n, Options{Shards: tc.shards, ChunkSize: tc.chunk}, k)
		if err != nil {
			t.Fatalf("Run(%+v): %v", tc, err)
		}
		got := states[0].(*countState)
		if got.n != tc.n {
			t.Errorf("Run(%+v) covered %d rows, want %d", tc, got.n, tc.n)
		}
		seen := make([]bool, tc.n)
		for _, ch := range got.chunks {
			for i := ch[0]; i < ch[1]; i++ {
				if seen[i] {
					t.Fatalf("Run(%+v): row %d visited twice", tc, i)
				}
				seen[i] = true
			}
		}
		for i, s := range seen {
			if !s {
				t.Fatalf("Run(%+v): row %d never visited", tc, i)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	k, _ := countKernel()
	if _, err := Run(-1, Options{}, k); err == nil {
		t.Error("Run(-1) should fail")
	}
	if _, err := Run(10, Options{}); err == nil {
		t.Error("Run with no kernels should fail")
	}
	if _, err := Run(10, Options{}, Kernel{Name: "nil"}); err == nil {
		t.Error("Run with a nil constructor should fail")
	}
}

func TestRunZeroRows(t *testing.T) {
	xs := []float64{}
	st, err := RunOne(0, Options{Shards: 4}, NewMoments(xs))
	if err != nil {
		t.Fatal(err)
	}
	m := st.(*Moments)
	if m.N != 0 || !math.IsNaN(m.Mean()) {
		t.Errorf("empty Moments: N=%d mean=%v", m.N, m.Mean())
	}
}

func TestMomentsMatchesSequential(t *testing.T) {
	xs := ramp(1000, 3)
	st, err := RunOne(len(xs), Options{Shards: 4, ChunkSize: 64}, NewMoments(xs))
	if err != nil {
		t.Fatal(err)
	}
	m := st.(*Moments)
	if m.N != 1000 {
		t.Fatalf("N = %d", m.N)
	}
	var sum, min, max float64
	min, max = xs[0], xs[0]
	for _, x := range xs {
		sum += x
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	if m.Min != min || m.Max != max {
		t.Errorf("min/max = %v/%v, want %v/%v", m.Min, m.Max, min, max)
	}
	if math.Abs(m.Sum-sum) > 1e-9*math.Abs(sum) {
		t.Errorf("sum = %v, want ~%v", m.Sum, sum)
	}
	mean := sum / 1000
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	wantVar := ss / 999
	if math.Abs(m.Variance()-wantVar) > 1e-9*wantVar {
		t.Errorf("variance = %v, want ~%v", m.Variance(), wantVar)
	}
}

func TestOutcomesCountsAndRestriction(t *testing.T) {
	yTrue := []float64{1, 0, 1, 0, 1, 0, 2}
	yPred := []float64{1, 1, 0, 0, 1, 0, 1}
	groups := []string{"a", "a", "b", "b", "a", "c", "c"}

	// Restricted to a and b: row 6's invalid label in group c is skipped.
	st, err := RunOne(len(yTrue), Options{Shards: 2, ChunkSize: 2},
		NewOutcomes(yTrue, yPred, groups, "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	o := st.(*Outcomes)
	if o.ErrRow != -1 {
		t.Fatalf("restricted scan flagged row %d", o.ErrRow)
	}
	a := o.Counts["a"]
	if a == nil || a.N != 3 || a.TP != 2 || a.FP != 1 {
		t.Errorf("group a counts: %+v", a)
	}
	b := o.Counts["b"]
	if b == nil || b.N != 2 || b.FN != 1 || b.TN != 1 {
		t.Errorf("group b counts: %+v", b)
	}
	if o.Counts["c"] != nil {
		t.Error("restricted scan counted group c")
	}

	// Unrestricted: the invalid row is reported with its smallest index.
	st, err = RunOne(len(yTrue), Options{Shards: 2, ChunkSize: 2},
		NewOutcomes(yTrue, yPred, groups))
	if err != nil {
		t.Fatal(err)
	}
	if got := st.(*Outcomes).ErrRow; got != 6 {
		t.Errorf("ErrRow = %d, want 6", got)
	}
}

func TestSortedMatchesSequentialSort(t *testing.T) {
	xs := ramp(1000, 7)
	st, err := RunOne(len(xs), Options{Shards: 5, ChunkSize: 37}, NewSorted(xs, false))
	if err != nil {
		t.Fatal(err)
	}
	got := st.(*Sorted).Values()
	if len(got) != len(xs) {
		t.Fatalf("len = %d, want %d", len(got), len(xs))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("not sorted at %d: %v > %v", i, got[i-1], got[i])
		}
	}
}

// TestLevelsDetach: dropping the input-column reference keeps the
// counts usable — the contract long-lived holders (the monitor's
// baseline profile) rely on.
func TestLevelsDetach(t *testing.T) {
	vals := []string{"a", "b", "a"}
	st, err := RunOne(len(vals), Options{Shards: 2, ChunkSize: 1}, NewLevels(vals))
	if err != nil {
		t.Fatal(err)
	}
	l := st.(*Levels)
	l.Detach()
	if l.vals != nil {
		t.Error("Detach left the column reference")
	}
	if l.Total() != 3 || l.Counts["a"] != 2 || len(l.Keys()) != 2 {
		t.Errorf("counts unusable after Detach: %v", l.Counts)
	}
}

func TestLevelsCounts(t *testing.T) {
	vals := []string{"x", "y", "x", "z", "x", "y"}
	st, err := RunOne(len(vals), Options{Shards: 2, ChunkSize: 2}, NewLevels(vals))
	if err != nil {
		t.Fatal(err)
	}
	l := st.(*Levels)
	if l.Counts["x"] != 3 || l.Counts["y"] != 2 || l.Counts["z"] != 1 {
		t.Errorf("counts: %v", l.Counts)
	}
	if l.Total() != 6 {
		t.Errorf("Total() = %d, want 6", l.Total())
	}
	keys := l.Keys()
	if len(keys) != 3 || keys[0] != "x" || keys[1] != "y" || keys[2] != "z" {
		t.Errorf("keys: %v", keys)
	}
}

// groupColumns returns the same group labels as a plain column, a
// dictionary-encoded one, and a dictionary-encoded one with null rows
// (rendered as ""), keyed by case name.
func groupColumns(t *testing.T, vals []string, nullRows ...int) map[string]*frame.Series {
	t.Helper()
	plain := frame.NewString("g", vals)
	nulls := plain.Intern()
	for _, i := range nullRows {
		nulls.SetNull(i)
	}
	cols := map[string]*frame.Series{"plain": plain, "dict": plain.Intern(), "dict-nulls": nulls}
	for name, col := range cols {
		if _, _, ok := col.DictView(); ok == (name == "plain") {
			t.Fatalf("%s: column encoding is not the one the case names", name)
		}
	}
	return cols
}

// TestOutcomesSeriesMatchesStrings: the column-keyed outcomes kernel
// tallies exactly what the string-keyed kernel tallies over the
// rendered values — on plain and dictionary-encoded columns, with null
// rows counted under "", with and without a restriction that names the
// "" group — and reports the same smallest invalid row.
func TestOutcomesSeriesMatchesStrings(t *testing.T) {
	yTrue := []float64{1, 0, 1, 0, 1, 0, 2, 1, 0, 1}
	yPred := []float64{1, 1, 0, 0, 1, 0, 1, 1, 1, 0}
	vals := []string{"a", "a", "b", "", "a", "c", "c", "b", "", "b"}
	cols := groupColumns(t, vals, 1, 7)
	for _, tc := range []struct {
		col  string
		only []string
	}{
		{"plain", nil},
		{"plain", []string{"a", "b"}},
		{"dict", nil},
		{"dict", []string{"a", "b"}},
		{"dict-nulls", nil},
		{"dict-nulls", []string{"a", "b"}},
		{"dict-nulls", []string{"", "b"}},
	} {
		col := cols[tc.col]
		for _, shards := range []int{1, 3} {
			opt := Options{Shards: shards, ChunkSize: 3}
			ws, err := RunOne(len(yTrue), opt, NewOutcomes(yTrue, yPred, col.Strings(), tc.only...))
			if err != nil {
				t.Fatal(err)
			}
			gs, err := RunOne(len(yTrue), opt, NewOutcomesSeries(yTrue, yPred, col, tc.only...))
			if err != nil {
				t.Fatal(err)
			}
			want, got := ws.(*Outcomes), gs.(*Outcomes)
			if got.ErrRow != want.ErrRow {
				t.Errorf("%s only=%q shards=%d: ErrRow %d, want %d", tc.col, tc.only, shards, got.ErrRow, want.ErrRow)
			}
			if len(got.Counts) != len(want.Counts) {
				t.Errorf("%s only=%q shards=%d: groups %v, want %v", tc.col, tc.only, shards, got.Counts, want.Counts)
			}
			for g, w := range want.Counts {
				if c := got.Counts[g]; c == nil || *c != *w {
					t.Errorf("%s only=%q shards=%d: group %q tallies %+v, want %+v", tc.col, tc.only, shards, g, c, w)
				}
			}
		}
	}
}

// TestLevelsSeriesMatchesStrings: the column-keyed level counter
// counts exactly what NewLevels counts over the rendered values, null
// rows under "" next to the genuine empty-string level.
func TestLevelsSeriesMatchesStrings(t *testing.T) {
	vals := []string{"x", "", "y", "x", "z", "x", "", "y"}
	for name, col := range groupColumns(t, vals, 0, 4) {
		for _, shards := range []int{1, 3} {
			opt := Options{Shards: shards, ChunkSize: 3}
			ws, err := RunOne(len(vals), opt, NewLevels(col.Strings()))
			if err != nil {
				t.Fatal(err)
			}
			gs, err := RunOne(len(vals), opt, NewLevelsSeries(col))
			if err != nil {
				t.Fatal(err)
			}
			want, got := ws.(*Levels), gs.(*Levels)
			if len(got.Counts) != len(want.Counts) || got.Total() != int64(len(vals)) {
				t.Errorf("%s shards=%d: counts %v, want %v", name, shards, got.Counts, want.Counts)
			}
			for k, w := range want.Counts {
				if got.Counts[k] != w {
					t.Errorf("%s shards=%d: level %q counted %d, want %d", name, shards, k, got.Counts[k], w)
				}
			}
		}
	}
}

// ramp generates a deterministic pseudo-random-ish sequence without
// pulling in a rng dependency.
func ramp(n int, seed uint64) []float64 {
	xs := make([]float64, n)
	state := seed
	for i := range xs {
		state = state*6364136223846793005 + 1442695040888963407
		xs[i] = float64(state>>11) / float64(1<<53) * 100
	}
	return xs
}
