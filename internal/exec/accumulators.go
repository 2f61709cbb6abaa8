package exec

import (
	"math"
	"sort"

	"github.com/responsible-data-science/rds/internal/frame"
)

// --- Moments ---

// Moments is the mergeable count/sum/min/max/mean/variance accumulator
// behind the baseline profile's summary moments: per-chunk states combine
// with the parallel-variance merge of Chan, Golub and LeVeque, so the
// result depends only on the chunk layout, never on the shard count.
// NaN inputs propagate through Sum/Mean/Variance exactly as they do
// through a sequential pass; Min/Max ignore NaN values entirely (a NaN
// neither seeds nor wins the extrema), staying NaN only when every
// value is NaN or the state is empty.
type Moments struct {
	xs []float64

	// N is the number of values absorbed.
	N int64
	// Sum is the running sum in chunk-merge order.
	Sum float64
	// Min and Max are the extrema over the non-NaN values; NaN when
	// none were seen.
	Min, Max float64

	mean, m2 float64
	seeded   bool // Min/Max hold a real value
}

// NewMoments returns a kernel accumulating the moments of xs.
func NewMoments(xs []float64) Kernel {
	return Kernel{Name: "moments", New: func() State {
		return &Moments{xs: xs, Min: math.NaN(), Max: math.NaN()}
	}}
}

// Update absorbs rows [lo, hi) of the column.
func (m *Moments) Update(lo, hi int) {
	for _, x := range m.xs[lo:hi] {
		if !math.IsNaN(x) {
			if !m.seeded {
				m.Min, m.Max, m.seeded = x, x, true
			} else {
				if x < m.Min {
					m.Min = x
				}
				if x > m.Max {
					m.Max = x
				}
			}
		}
		m.N++
		m.Sum += x
		delta := x - m.mean
		m.mean += delta / float64(m.N)
		m.m2 += delta * (x - m.mean)
	}
}

// Merge absorbs another Moments state (Chan-style parallel combine).
func (m *Moments) Merge(other State) {
	o := other.(*Moments)
	if o.seeded {
		if !m.seeded {
			m.Min, m.Max, m.seeded = o.Min, o.Max, true
		} else {
			if o.Min < m.Min {
				m.Min = o.Min
			}
			if o.Max > m.Max {
				m.Max = o.Max
			}
		}
	}
	if o.N == 0 {
		return
	}
	if m.N == 0 {
		m.N, m.Sum, m.mean, m.m2 = o.N, o.Sum, o.mean, o.m2
		return
	}
	n := m.N + o.N
	delta := o.mean - m.mean
	m.mean += delta * float64(o.N) / float64(n)
	m.m2 += o.m2 + delta*delta*float64(m.N)*float64(o.N)/float64(n)
	m.N = n
	m.Sum += o.Sum
}

// Mean returns Sum/N, NaN when empty.
func (m *Moments) Mean() float64 {
	if m.N == 0 {
		return math.NaN()
	}
	return m.Sum / float64(m.N)
}

// Variance returns the unbiased (n-1) sample variance, NaN for N < 2.
func (m *Moments) Variance() float64 {
	if m.N < 2 {
		return math.NaN()
	}
	return m.m2 / float64(m.N-1)
}

// StdDev returns the unbiased sample standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// --- Outcomes ---

// OutcomeCounts are one group's binary-classification tallies. Being
// integer counts, they merge exactly: sharded group rates computed from
// them are bit-identical to a sequential pass.
type OutcomeCounts struct {
	// N is the group's row count.
	N int64
	// TP, FP, TN, FN are the confusion-matrix cells (prediction vs
	// truth, 1 the favourable outcome).
	TP, FP, TN, FN int64
}

// Outcomes is the fairness kernel: per-group confusion counts over
// (yTrue, yPred, groups), restricted to the named groups when a
// restriction is given. Rows with labels or predictions outside {0, 1}
// are reported through ErrRow rather than counted.
type Outcomes struct {
	yTrue, yPred []float64
	groups       []string
	only         []string

	// codes/dict/nullMask/keep are the typed fast path over a
	// dict-encoded group column (NewOutcomesSeries): rows tally into a
	// code-indexed array with a precomputed per-code restriction mask —
	// no string hash or group-name comparison per row — and fold into
	// Counts once per chunk.
	codes    []int32
	dict     []string
	nullMask []bool
	keep     []bool

	// Counts maps group label to its tallies. Groups outside the
	// restriction never appear.
	Counts map[string]*OutcomeCounts
	// ErrRow is the smallest row index holding a non-binary label or
	// prediction in a counted group, or -1 when every counted row was
	// valid.
	ErrRow int
}

// NewOutcomes returns a kernel tallying per-group outcome counts. When
// only is non-empty, rows of other groups are skipped entirely (they
// are neither counted nor validated), mirroring a sequential pass that
// filters to the groups of interest first.
func NewOutcomes(yTrue, yPred []float64, groups []string, only ...string) Kernel {
	return Kernel{Name: "outcomes", New: func() State {
		return &Outcomes{
			yTrue: yTrue, yPred: yPred, groups: groups, only: only,
			Counts: make(map[string]*OutcomeCounts, len(only)+2),
			ErrRow: -1,
		}
	}}
}

// NewOutcomesSeries is NewOutcomes keyed on a group column instead of
// pre-rendered strings: dict-encoded columns take the typed code path
// (bit-identical tallies, no per-row string work — see Outcomes), plain
// columns fall back to NewOutcomes over the rendered values.
func NewOutcomesSeries(yTrue, yPred []float64, groups *frame.Series, only ...string) Kernel {
	codes, dict, ok := groups.DictView()
	if !ok {
		return NewOutcomes(yTrue, yPred, groups.Strings(), only...)
	}
	nullMask := groups.NullMask()
	var keep []bool
	if len(only) > 0 {
		keep = make([]bool, len(dict))
		for i, v := range dict {
			for _, name := range only {
				if v == name {
					keep[i] = true
					break
				}
			}
		}
	}
	return Kernel{Name: "outcomes", New: func() State {
		return &Outcomes{
			yTrue: yTrue, yPred: yPred, only: only,
			codes: codes, dict: dict, nullMask: nullMask, keep: keep,
			Counts: make(map[string]*OutcomeCounts, len(only)+2),
			ErrRow: -1,
		}
	}}
}

// Update absorbs rows [lo, hi).
func (o *Outcomes) Update(lo, hi int) {
	if o.codes != nil {
		o.updateCodes(lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		g := o.groups[i]
		if len(o.only) > 0 {
			keep := false
			for _, name := range o.only {
				if g == name {
					keep = true
					break
				}
			}
			if !keep {
				continue
			}
		}
		c := o.Counts[g]
		if c == nil {
			c = &OutcomeCounts{}
			o.Counts[g] = c
		}
		c.N++
		switch {
		case o.yTrue[i] == 1 && o.yPred[i] == 1:
			c.TP++
		case o.yTrue[i] == 0 && o.yPred[i] == 1:
			c.FP++
		case o.yTrue[i] == 0 && o.yPred[i] == 0:
			c.TN++
		case o.yTrue[i] == 1 && o.yPred[i] == 0:
			c.FN++
		default:
			if o.ErrRow < 0 || i < o.ErrRow {
				o.ErrRow = i
			}
		}
	}
}

// updateCodes is the typed Update over a dict-encoded group column:
// rows tally into a chunk-local code-indexed array (null rows into the
// "" group they render as), folded into Counts once at the end. The
// fold order over codes is fixed, and the tallies are the integer
// counts a per-row map insert would have produced, so the resulting
// Counts map is identical to the string-keyed path's.
func (o *Outcomes) updateCodes(lo, hi int) {
	tally := make([]OutcomeCounts, len(o.dict))
	var nullTally OutcomeCounts
	nullKept := true
	if o.keep != nil {
		nullKept = false
		for _, name := range o.only {
			if name == "" {
				nullKept = true
				break
			}
		}
	}
	errRow := -1
	for i := lo; i < hi; i++ {
		var c *OutcomeCounts
		if o.nullMask != nil && o.nullMask[i] {
			if !nullKept {
				continue
			}
			c = &nullTally
		} else {
			code := o.codes[i]
			if o.keep != nil && !o.keep[code] {
				continue
			}
			c = &tally[code]
		}
		c.N++
		yt, yp := o.yTrue[i], o.yPred[i]
		switch {
		case yt == 1 && yp == 1:
			c.TP++
		case yt == 0 && yp == 1:
			c.FP++
		case yt == 0 && yp == 0:
			c.TN++
		case yt == 1 && yp == 0:
			c.FN++
		default:
			if errRow < 0 {
				errRow = i // i ascends, so the first bad row is the smallest
			}
		}
	}
	for code := range tally {
		if t := &tally[code]; t.N > 0 {
			o.addCounts(o.dict[code], t)
		}
	}
	if nullTally.N > 0 {
		o.addCounts("", &nullTally)
	}
	if errRow >= 0 && (o.ErrRow < 0 || errRow < o.ErrRow) {
		o.ErrRow = errRow
	}
}

// addCounts accumulates t into the named group's entry of Counts.
func (o *Outcomes) addCounts(g string, t *OutcomeCounts) {
	a := o.Counts[g]
	if a == nil {
		a = &OutcomeCounts{}
		o.Counts[g] = a
	}
	a.N += t.N
	a.TP += t.TP
	a.FP += t.FP
	a.TN += t.TN
	a.FN += t.FN
}

// Merge absorbs another Outcomes state, keeping the smallest error row.
func (o *Outcomes) Merge(other State) {
	b := other.(*Outcomes)
	for g, c := range b.Counts {
		o.addCounts(g, c)
	}
	if b.ErrRow >= 0 && (o.ErrRow < 0 || b.ErrRow < o.ErrRow) {
		o.ErrRow = b.ErrRow
	}
}

// --- Sorted ---

// Sorted collects a column's values fully sorted: chunks gather their
// values into runs in parallel, Merge collects the runs, and Values
// produces the final sorted slice. When the data carries no NaN and no
// negative zero, Values takes one radix sort over the gathered values
// (see radixSortFloat64 for why that is bit-identical to sorting with
// the standard library); otherwise each run is sorted with
// sort.Float64s and folded with the deterministic balanced merge, the
// original path, whose NaN placement and -0/+0 tie order downstream
// hashes depend on. For finite data the output is the unique sorted
// permutation, identical to a sequential sort either way.
type Sorted struct {
	xs         []float64
	finiteOnly bool

	runs               [][]float64
	hasNaN, hasNegZero bool
}

// NewSorted returns a kernel sorting xs; with finiteOnly, NaN and ±Inf
// values are dropped first (the drift scorers' convention).
func NewSorted(xs []float64, finiteOnly bool) Kernel {
	return Kernel{Name: "sorted", New: func() State {
		return &Sorted{xs: xs, finiteOnly: finiteOnly}
	}}
}

// Update gathers rows [lo, hi) into a run, noting the values that would
// make a radix sort diverge from sort.Float64s.
func (s *Sorted) Update(lo, hi int) {
	vals := make([]float64, 0, hi-lo)
	for _, x := range s.xs[lo:hi] {
		if math.IsNaN(x) {
			if s.finiteOnly {
				continue
			}
			s.hasNaN = true
		} else if math.IsInf(x, 0) {
			if s.finiteOnly {
				continue
			}
		} else if x == 0 && math.Signbit(x) {
			s.hasNegZero = true
		}
		vals = append(vals, x)
	}
	if len(vals) == 0 {
		return
	}
	s.runs = append(s.runs, vals)
}

// Merge gathers the other state's runs, preserving chunk order.
func (s *Sorted) Merge(other State) {
	o := other.(*Sorted)
	s.runs = append(s.runs, o.runs...)
	s.hasNaN = s.hasNaN || o.hasNaN
	s.hasNegZero = s.hasNegZero || o.hasNegZero
}

// Values returns the collected values as one sorted slice.
func (s *Sorted) Values() []float64 {
	total := 0
	for _, r := range s.runs {
		total += len(r)
	}
	if !s.hasNaN && !s.hasNegZero && total >= radixMinLen {
		all := make([]float64, 0, total)
		for _, r := range s.runs {
			all = append(all, r...)
		}
		radixSortFloat64(all)
		return all
	}
	for _, r := range s.runs {
		// Idempotence: a prior Values call (or a caller handing in
		// pre-sorted runs) leaves runs sorted; Float64sAreSorted uses
		// the same NaN-first order sort.Float64s establishes.
		if !sort.Float64sAreSorted(r) {
			sort.Float64s(r)
		}
	}
	return mergeRuns(s.runs)
}

// mergeRuns folds sorted runs into one sorted slice by balanced
// pairwise merges — O(n log k) over k runs — the fold behind
// Sorted.Values for data a radix sort cannot order. For finite data the
// output is the unique sorted permutation of the inputs regardless of
// how the values were split into runs. The result may alias an input
// run; treat both as immutable.
func mergeRuns(runs [][]float64) []float64 {
	for len(runs) > 1 {
		merged := make([][]float64, 0, (len(runs)+1)/2)
		for i := 0; i < len(runs); i += 2 {
			if i+1 == len(runs) {
				merged = append(merged, runs[i])
				continue
			}
			merged = append(merged, mergeSorted(runs[i], runs[i+1]))
		}
		runs = merged
	}
	if len(runs) == 0 {
		return nil
	}
	return runs[0]
}

// mergeSorted merges two sorted runs into a new slice, preserving the
// sort.Float64s ordering (NaN values before all others) so the merged
// output of NaN-carrying runs stays sorted.
func mergeSorted(a, b []float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] || math.IsNaN(a[i]) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// --- Levels ---

// Levels counts a categorical column's level frequencies — the
// mergeable histogram behind categorical PSI. Counts are integers, so
// shard merges are exact.
type Levels struct {
	vals []string

	// codes/dict/nullMask are the typed fast path over a dict-encoded
	// column (NewLevelsSeries): rows tally into a code-indexed array —
	// one map insert per observed level per chunk instead of one per
	// row — and fold into Counts at the end of each chunk's Update.
	codes    []int32
	dict     []string
	nullMask []bool

	// Counts maps level to frequency.
	Counts map[string]int64
}

// NewLevels returns a kernel counting level frequencies of vals.
func NewLevels(vals []string) Kernel {
	return Kernel{Name: "levels", New: func() State {
		return &Levels{vals: vals, Counts: map[string]int64{}}
	}}
}

// NewLevelsSeries is NewLevels over a column instead of pre-rendered
// strings: dict-encoded columns tally by code (bit-identical counts,
// no per-row hashing or materialized []string), plain columns fall
// back to NewLevels(s.Strings()). Null rows count toward "", the value
// they render as.
func NewLevelsSeries(s *frame.Series) Kernel {
	codes, dict, ok := s.DictView()
	if !ok {
		return NewLevels(s.Strings())
	}
	nullMask := s.NullMask()
	return Kernel{Name: "levels", New: func() State {
		return &Levels{codes: codes, dict: dict, nullMask: nullMask, Counts: map[string]int64{}}
	}}
}

// Update absorbs rows [lo, hi).
func (l *Levels) Update(lo, hi int) {
	if l.codes != nil {
		tally := make([]int64, len(l.dict))
		var nulls int64
		if l.nullMask == nil {
			for _, c := range l.codes[lo:hi] {
				tally[c]++
			}
		} else {
			for i := lo; i < hi; i++ {
				if l.nullMask[i] {
					nulls++
				} else {
					tally[l.codes[i]]++
				}
			}
		}
		for code, n := range tally {
			if n != 0 {
				l.Counts[l.dict[code]] += n
			}
		}
		if nulls != 0 {
			l.Counts[""] += nulls
		}
		return
	}
	for _, v := range l.vals[lo:hi] {
		l.Counts[v]++
	}
}

// Merge adds another Levels' counts.
func (l *Levels) Merge(other State) {
	for v, c := range other.(*Levels).Counts {
		l.Counts[v] += c
	}
}

// Total returns the number of counted values across every level.
func (l *Levels) Total() int64 {
	var t int64
	for _, c := range l.Counts {
		t += c
	}
	return t
}

// Detach drops the state's references to the input column, for final
// states that outlive the scan (the monitor's baseline profile holds
// its Levels for the life of a monitor) — without it a retained state
// pins the entire raw column. The counts stay valid; Update must not
// be called after Detach.
func (l *Levels) Detach() {
	l.vals = nil
	l.codes, l.dict, l.nullMask = nil, nil, nil
}

// Keys returns the observed levels in sorted order, so downstream
// float folds over levels are deterministic.
func (l *Levels) Keys() []string {
	keys := make([]string, 0, len(l.Counts))
	for k := range l.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
