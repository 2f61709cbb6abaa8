package frame

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// inferChunksTwoPass is the type inference ReadCSV ran before it kept
// the values its inference pass parses: one pass picks the type, a
// second parses every cell again to build the column. It is the oracle
// for FuzzReadCSVMatchesTwoPass.
func inferChunksTwoPass(name string, raw []string) *Series {
	isInt, isFloat, isBool := true, true, true
	hasFinite, hasNonFinite := false, false
	for _, v := range raw {
		if v == "" {
			continue
		}
		if isInt {
			if _, err := strconv.ParseInt(v, 10, 64); err != nil {
				isInt = false
			}
		}
		if isFloat {
			if f, err := strconv.ParseFloat(v, 64); err != nil {
				isFloat = false
			} else if math.IsNaN(f) || math.IsInf(f, 0) {
				hasNonFinite = true
			} else {
				hasFinite = true
			}
		}
		if isBool {
			if _, err := strconv.ParseBool(v); err != nil {
				isBool = false
			}
		}
	}
	var s *Series
	var set func(i int, v string)
	var finish func()
	switch {
	case isInt:
		s = &Series{name: name, dtype: Int64, ints: make([]int64, len(raw))}
		set = func(i int, v string) { s.ints[i], _ = strconv.ParseInt(v, 10, 64) }
	case isFloat && (hasFinite || !hasNonFinite):
		s = &Series{name: name, dtype: Float64, floats: make([]float64, len(raw))}
		set = func(i int, v string) { s.floats[i], _ = strconv.ParseFloat(v, 64) }
	case isBool:
		s = &Series{name: name, dtype: Bool, bools: make([]bool, len(raw))}
		set = func(i int, v string) { s.bools[i], _ = strconv.ParseBool(v) }
	default:
		s, set, finish = dictColumn(name, len(raw))
	}
	for i, v := range raw {
		if v == "" {
			s.SetNull(i)
		} else {
			set(i, v)
		}
	}
	if finish != nil {
		finish()
	}
	return s
}

// FuzzReadCSVMatchesTwoPass checks that ReadCSV, which parses each
// numeric cell once, builds the frame the two-pass inference builds:
// the same dtypes, the same nulls and the same Frame.Hash, which hashes
// float bits and so tells -0 from +0.
func FuzzReadCSVMatchesTwoPass(f *testing.F) {
	for _, s := range []string{
		"id,v\n1,2\n",
		"x\n0\n-0\n1.5\n",             // an int prefix, then a float: -0 stays -0
		"x\n-0\n\n+7\n2e3\n",          // null inside the int prefix
		"x\n1\n2\nNaN\n",              // ints, then a non-finite float
		"x\nNaN\n1\n",                 // non-finite first, then an int
		"x\n1\n2\nabc\n",              // ints, then text
		"x\n1.5\n-0\nInf\n",           // floats from the first cell
		"x\n\n\n",                     // every cell null
		"x\n1\n0\ntrue\n",             // ints that are also bools, then a bool
		"x\n9223372036854775808\n1\n", // past int64: a float column
		"a,b\n1,x\n-0,\n2.5,y\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		got, err := ReadCSV(strings.NewReader(input))
		want, werr := readCSV(strings.NewReader(input), inferChunksTwoPass)
		if (err == nil) != (werr == nil) {
			t.Fatalf("ReadCSV error %v, two-pass error %v: %q", err, werr, input)
		}
		if err != nil {
			return
		}
		if got.NumCols() != want.NumCols() || got.NumRows() != want.NumRows() {
			t.Fatalf("shape %dx%d, two-pass %dx%d: %q", got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols(), input)
		}
		for j := 0; j < got.NumCols(); j++ {
			g, w := got.ColAt(j), want.ColAt(j)
			if g.DType() != w.DType() {
				t.Fatalf("column %d dtype %v, two-pass %v: %q", j, g.DType(), w.DType(), input)
			}
			for i := 0; i < g.Len(); i++ {
				if g.IsNull(i) != w.IsNull(i) {
					t.Fatalf("column %d row %d null %v, two-pass %v: %q", j, i, g.IsNull(i), w.IsNull(i), input)
				}
			}
		}
		if g, w := got.Hash(), want.Hash(); g != w {
			t.Fatalf("hash %s, two-pass %s: %q", g, w, input)
		}
	})
}
