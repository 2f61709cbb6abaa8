package frame

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// appendPair is the two-frame concatenation Append performed before it
// took a list of frames, kept as the oracle for the one-pass version: a
// chain of appendPair calls fixes the representation Append must build
// (dictionary order, plain fallback, null masks, nil payload slices).
func appendPair(f, g *Frame) (*Frame, error) {
	if f.NumCols() != g.NumCols() {
		return nil, fmt.Errorf("frame: Append schema mismatch: %d vs %d columns", f.NumCols(), g.NumCols())
	}
	out := &Frame{byName: make(map[string]int, len(f.cols))}
	for i, c := range f.cols {
		o := g.cols[i]
		if c.Name() != o.Name() || c.DType() != o.DType() {
			return nil, fmt.Errorf("frame: Append column %d mismatch: %s %s vs %s %s",
				i, c.Name(), c.DType(), o.Name(), o.DType())
		}
		merged := &Series{name: c.Name(), dtype: c.DType()}
		merged.floats = append(append([]float64(nil), c.floats...), o.floats...)
		merged.ints = append(append([]int64(nil), c.ints...), o.ints...)
		merged.bools = append(append([]bool(nil), c.bools...), o.bools...)
		if c.DType() == String {
			appendPairStrings(merged, c, o)
		}
		if c.nulls != nil || o.nulls != nil {
			merged.nulls = make([]bool, c.Len()+o.Len())
			for i := 0; i < c.Len(); i++ {
				merged.nulls[i] = c.IsNull(i)
			}
			for i := 0; i < o.Len(); i++ {
				merged.nulls[c.Len()+i] = o.IsNull(i)
			}
		}
		if err := out.addColumn(merged); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// appendPairStrings is appendPair's string payload step.
func appendPairStrings(merged, a, b *Series) {
	switch {
	case a.dict != nil && b.dict != nil:
		dict := append(make([]string, 0, len(a.dict)), a.dict...)
		idx := make(map[string]int32, len(dict))
		for i, v := range dict {
			idx[v] = int32(i)
		}
		remap := make([]int32, len(b.dict))
		for i, v := range b.dict {
			c, ok := idx[v]
			if !ok {
				c = int32(len(dict))
				dict = append(dict, v)
				idx[v] = c
			}
			remap[i] = c
		}
		codes := make([]int32, 0, len(a.codes)+len(b.codes))
		codes = append(codes, a.codes...)
		for _, c := range b.codes {
			codes = append(codes, remap[c])
		}
		merged.codes, merged.dict = codes, dict
	case a.dict == nil && b.dict == nil:
		merged.strings = append(append(make([]string, 0, len(a.strings)+len(b.strings)), a.strings...), b.strings...)
	default:
		out := make([]string, 0, a.Len()+b.Len())
		for i := 0; i < a.Len(); i++ {
			out = append(out, a.strAt(i))
		}
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.strAt(i))
		}
		merged.strings = out
	}
}

// sameSlice reports whether two payload slices agree in nil-ness and
// elements, comparing elements with eq.
func sameSlice[T any](a, b []T, eq func(x, y T) bool) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if !eq(a[i], b[i]) {
			return false
		}
	}
	return true
}

func eqComparable[T comparable](x, y T) bool { return x == y }

// sameRepresentation compares two series field by field: payloads,
// dictionary and codes, null mask, nil slices as nil, floats by bits.
func sameRepresentation(a, b *Series) bool {
	return a.name == b.name && a.dtype == b.dtype &&
		sameSlice(a.floats, b.floats, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) &&
		sameSlice(a.ints, b.ints, eqComparable[int64]) &&
		sameSlice(a.strings, b.strings, eqComparable[string]) &&
		sameSlice(a.bools, b.bools, eqComparable[bool]) &&
		sameSlice(a.codes, b.codes, eqComparable[int32]) &&
		sameSlice(a.dict, b.dict, eqComparable[string]) &&
		sameSlice(a.nulls, b.nulls, eqComparable[bool])
}

// randomAppendPart builds one part of the shared schema with rows rows:
// floats with NaN, ±Inf and -0, small ints, a dictionary-encoded or
// plain string column (per part), a string column sliced from a shared
// dictionary, bools, and null masks on some columns of some parts.
func randomAppendPart(rng *rand.Rand, rows int, shared *Series) *Frame {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	floats := make([]float64, rows)
	ints := make([]int64, rows)
	strs := make([]string, rows)
	bools := make([]bool, rows)
	for i := 0; i < rows; i++ {
		if rng.Intn(4) == 0 {
			floats[i] = specials[rng.Intn(len(specials))]
		} else {
			floats[i] = float64(rng.Intn(7)) - 3.5
		}
		ints[i] = int64(rng.Intn(5))
		strs[i] = fmt.Sprintf("l%d", rng.Intn(6))
		bools[i] = rng.Intn(2) == 0
	}
	str := NewString("s", strs)
	if rng.Intn(3) > 0 {
		str = str.Intern()
	}
	lo := rng.Intn(shared.Len() - rows + 1)
	cols := []*Series{
		NewFloat64("f", floats),
		NewInt64("i", ints),
		str,
		shared.Slice(lo, lo+rows),
		NewBool("b", bools),
	}
	for j, c := range cols {
		if rows > 0 && rng.Intn(3) == 0 {
			c = c.clone()
			for i := 0; i < rows; i++ {
				if rng.Intn(3) == 0 {
					c.SetNull(i)
				}
			}
			cols[j] = c
		}
	}
	return MustNew(cols...)
}

// TestAppendMatchesChainedPairs: for random lists of 1–6 parts (empty
// parts, NaN, ±Inf, -0, nulls, dictionary and plain strings, parts
// sharing one dictionary), the one-pass Append builds exactly the frame
// a chain of two-frame appends builds — representation and Hash.
func TestAppendMatchesChainedPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sharedVals := make([]string, 64)
	for i := range sharedVals {
		sharedVals[i] = fmt.Sprintf("g%d", rng.Intn(9))
	}
	shared := NewString("d", sharedVals).Intern()
	for trial := 0; trial < 400; trial++ {
		parts := make([]*Frame, 1+rng.Intn(6))
		for i := range parts {
			parts[i] = randomAppendPart(rng, rng.Intn(12), shared)
		}
		want := parts[0]
		for _, p := range parts[1:] {
			var err error
			if want, err = appendPair(want, p); err != nil {
				t.Fatalf("trial %d: appendPair: %v", trial, err)
			}
		}
		got, err := parts[0].Append(parts[1:]...)
		if err != nil {
			t.Fatalf("trial %d: Append: %v", trial, err)
		}
		if got.NumCols() != want.NumCols() {
			t.Fatalf("trial %d: %d columns, want %d", trial, got.NumCols(), want.NumCols())
		}
		for j := 0; j < got.NumCols(); j++ {
			if !sameRepresentation(got.ColAt(j), want.ColAt(j)) {
				t.Fatalf("trial %d (%d parts): column %q diverged from the chained appends:\n  got:  %+v\n  want: %+v",
					trial, len(parts), got.ColAt(j).Name(), *got.ColAt(j), *want.ColAt(j))
			}
		}
		if got.Hash() != want.Hash() {
			t.Fatalf("trial %d: Hash diverged from the chained appends", trial)
		}
	}
}

// TestAppendReportsFirstMismatch: a list with a bad part fails with the
// error the chain would have stopped at.
func TestAppendReportsFirstMismatch(t *testing.T) {
	a := MustNew(NewFloat64("x", []float64{1}), NewInt64("y", []int64{1}))
	renamed := MustNew(NewFloat64("x", []float64{2}), NewInt64("z", []int64{2}))
	narrow := MustNew(NewFloat64("x", []float64{3}))
	for _, parts := range [][]*Frame{{a, renamed, narrow}, {a, narrow, renamed}, {a, a, renamed}} {
		want := parts[0]
		var werr error
		for _, p := range parts[1:] {
			if want, werr = appendPair(want, p); werr != nil {
				break
			}
		}
		_, gerr := parts[0].Append(parts[1:]...)
		if werr == nil || gerr == nil || gerr.Error() != werr.Error() {
			t.Errorf("Append error %v, want %v", gerr, werr)
		}
	}
}
