// Package frame implements a small columnar dataframe: typed series with
// null masks, a Frame of named columns, a CSV codec, and the relational
// operations (select, filter, sort, group-by, join) that the rest of the
// toolkit builds pipelines from.
//
// Design notes. Columns are value types over plain slices so that
// vectorized passes (metrics, mitigators, DP aggregations) iterate flat
// memory. All mutating operations return new frames; pipeline stages never
// alias, which keeps provenance hashes meaningful (FACT Q4). Nulls are
// tracked with an explicit bitmap rather than sentinel values so that
// statistics code can distinguish "zero" from "missing" — conflating the
// two is one of the silent accuracy bugs the paper warns about (FACT Q2).
package frame

import (
	"fmt"
	"math"
	"strconv"
)

// DType identifies the element type of a Series.
type DType int

const (
	// Float64 is a 64-bit floating point column.
	Float64 DType = iota
	// Int64 is a 64-bit integer column.
	Int64
	// String is a UTF-8 string column.
	String
	// Bool is a boolean column.
	Bool
)

// String returns the human-readable name of the dtype.
func (d DType) String() string {
	switch d {
	case Float64:
		return "float64"
	case Int64:
		return "int64"
	case String:
		return "string"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("DType(%d)", int(d))
	}
}

// Series is a named, typed column with an optional null mask.
// Exactly one of the payload slices is non-nil, matching DType.
//
// String columns have two interchangeable representations: plain (one
// string per row in strings) and dictionary-encoded (per-row int32
// codes into a dict of distinct values). The representation is
// invisible to value semantics — Str, Hash, Equal, Levels and the
// codecs observe identical values either way — but dict-encoded
// columns let hot kernels tally by array index instead of hashing a
// string per row, and shrink the resident footprint of categorical
// columns from one string header per row to four bytes per row.
type Series struct {
	name    string
	dtype   DType
	floats  []float64
	ints    []int64
	strings []string
	bools   []bool
	// codes/dict form the dictionary-encoded String representation:
	// the value at row i is dict[codes[i]]. dict is never mutated after
	// construction, so derived series (Take, clone) share it. When a
	// constructor encodes a column containing nulls, the null rows
	// carry the code of "" to keep every code a valid dict index.
	codes []int32
	dict  []string
	// nulls[i] == true means row i is missing. nil means "no nulls".
	nulls []bool
}

// dictMaxLevels caps how many distinct levels a dictionary may hold
// before encoding constructors keep the column plain: far below the
// int32 code range, past it a dictionary is all overhead (ID-like
// columns get no sharing and kernels no small tally arrays).
const dictMaxLevels = 1 << 20

// strAt returns the string payload at row i without the null check,
// reading whichever String representation is populated.
func (s *Series) strAt(i int) string {
	if s.dict != nil {
		return s.dict[s.codes[i]]
	}
	return s.strings[i]
}

// NewFloat64 constructs a float64 series. The slice is copied.
func NewFloat64(name string, values []float64) *Series {
	return &Series{name: name, dtype: Float64, floats: append([]float64(nil), values...)}
}

// NewInt64 constructs an int64 series. The slice is copied.
func NewInt64(name string, values []int64) *Series {
	return &Series{name: name, dtype: Int64, ints: append([]int64(nil), values...)}
}

// NewString constructs a string series. The slice is copied.
func NewString(name string, values []string) *Series {
	return &Series{name: name, dtype: String, strings: append([]string(nil), values...)}
}

// NewBool constructs a bool series. The slice is copied.
func NewBool(name string, values []bool) *Series {
	return &Series{name: name, dtype: Bool, bools: append([]bool(nil), values...)}
}

// NewStringDict constructs a dictionary-encoded string series: the
// value at row i is dict[codes[i]]. Both slices are copied. Every code
// must index into dict; dict entries need not be distinct (the codec
// restores whatever dictionary was written), though encoding
// constructors always produce distinct ones.
func NewStringDict(name string, codes []int32, dict []string) (*Series, error) {
	for i, c := range codes {
		if c < 0 || int(c) >= len(dict) {
			return nil, fmt.Errorf("frame: column %q: code %d at row %d outside dictionary of %d levels",
				name, c, i, len(dict))
		}
	}
	return &Series{
		name:  name,
		dtype: String,
		codes: append(make([]int32, 0, len(codes)), codes...),
		dict:  append(make([]string, 0, len(dict)), dict...),
	}, nil
}

// Intern returns a dictionary-encoded copy of a plain String column.
// Non-string columns, already-encoded columns, and columns whose
// cardinality exceeds the dictionary guard return the receiver
// unchanged. Null rows are assigned the code of "" (matching their
// rendered value), so interning never changes observable values, Hash,
// or Equal.
func (s *Series) Intern() *Series {
	if s.dtype != String || s.dict != nil {
		return s
	}
	codes := make([]int32, len(s.strings))
	idx := make(map[string]int32, 16)
	dict := []string{}
	for i, v := range s.strings {
		if s.nulls != nil && s.nulls[i] {
			v = ""
		}
		c, ok := idx[v]
		if !ok {
			if len(dict) >= dictMaxLevels {
				return s
			}
			c = int32(len(dict))
			dict = append(dict, v)
			idx[v] = c
		}
		codes[i] = c
	}
	out := &Series{name: s.name, dtype: String, codes: codes, dict: dict}
	if s.nulls != nil {
		out.nulls = append([]bool(nil), s.nulls...)
	}
	return out
}

// InternIngest dictionary-encodes a plain String column under the
// ingest cardinality policy: mostly-unique columns (more than half the
// rows distinct, at dictFallbackMinRows rows or more) stay plain — an
// ID-like column gets no sharing from a dictionary, only overhead.
// Ingest paths (CSV, NDJSON) share this policy.
func (s *Series) InternIngest() *Series {
	if s.dtype != String || s.dict != nil {
		return s
	}
	enc := s.Intern()
	if _, dict, ok := enc.DictView(); ok && s.Len() >= dictFallbackMinRows && 2*len(dict) > s.Len() {
		return s
	}
	return enc
}

// DictView exposes the dictionary-encoded representation of a String
// column: per-row codes and the dictionary they index, with ok=false
// for every other column. The returned slices are the series' own
// storage — callers must treat them as read-only.
func (s *Series) DictView() (codes []int32, dict []string, ok bool) {
	if s.dtype != String || s.dict == nil {
		return nil, nil, false
	}
	return s.codes, s.dict, true
}

// Name returns the column name.
func (s *Series) Name() string { return s.name }

// DType returns the column element type.
func (s *Series) DType() DType { return s.dtype }

// Len returns the number of rows.
func (s *Series) Len() int {
	switch s.dtype {
	case Float64:
		return len(s.floats)
	case Int64:
		return len(s.ints)
	case String:
		if s.dict != nil {
			return len(s.codes)
		}
		return len(s.strings)
	case Bool:
		return len(s.bools)
	}
	return 0
}

// Rename returns a copy of the series under a new name.
func (s *Series) Rename(name string) *Series {
	c := s.clone()
	c.name = name
	return c
}

func (s *Series) clone() *Series {
	c := &Series{name: s.name, dtype: s.dtype}
	c.floats = append([]float64(nil), s.floats...)
	c.ints = append([]int64(nil), s.ints...)
	c.strings = append([]string(nil), s.strings...)
	c.bools = append([]bool(nil), s.bools...)
	c.codes = append([]int32(nil), s.codes...)
	c.dict = s.dict // immutable after construction; shared
	if s.nulls != nil {
		c.nulls = append([]bool(nil), s.nulls...)
	}
	return c
}

// SetNull marks row i as missing.
func (s *Series) SetNull(i int) {
	if s.nulls == nil {
		s.nulls = make([]bool, s.Len())
	}
	s.nulls[i] = true
}

// IsNull reports whether row i is missing.
func (s *Series) IsNull(i int) bool {
	return s.nulls != nil && s.nulls[i]
}

// NullMask exposes the column's null bitmap, nil when no row is null,
// so typed kernels can branch per chunk instead of calling IsNull per
// cell. The slice is the series' own storage — callers must treat it
// as read-only.
func (s *Series) NullMask() []bool {
	if s.NullCount() == 0 {
		return nil
	}
	return s.nulls
}

// NullCount returns the number of missing rows.
func (s *Series) NullCount() int {
	n := 0
	for _, b := range s.nulls {
		if b {
			n++
		}
	}
	return n
}

// Float returns the float64 value at row i. Int64 columns are widened;
// other dtypes panic. Null rows return NaN.
func (s *Series) Float(i int) float64 {
	if s.IsNull(i) {
		return math.NaN()
	}
	switch s.dtype {
	case Float64:
		return s.floats[i]
	case Int64:
		return float64(s.ints[i])
	default:
		panic(fmt.Sprintf("frame: Float on %s column %q", s.dtype, s.name))
	}
}

// Int returns the int64 value at row i. Panics for non-integer columns or
// null rows.
func (s *Series) Int(i int) int64 {
	if s.IsNull(i) {
		panic(fmt.Sprintf("frame: Int on null row %d of %q", i, s.name))
	}
	if s.dtype != Int64 {
		panic(fmt.Sprintf("frame: Int on %s column %q", s.dtype, s.name))
	}
	return s.ints[i]
}

// Str returns the string value at row i. Panics for non-string columns.
// Null rows return "".
func (s *Series) Str(i int) string {
	if s.IsNull(i) {
		return ""
	}
	if s.dtype != String {
		panic(fmt.Sprintf("frame: Str on %s column %q", s.dtype, s.name))
	}
	return s.strAt(i)
}

// Boolv returns the bool value at row i. Panics for non-bool columns. Null
// rows return false.
func (s *Series) Boolv(i int) bool {
	if s.IsNull(i) {
		return false
	}
	if s.dtype != Bool {
		panic(fmt.Sprintf("frame: Boolv on %s column %q", s.dtype, s.name))
	}
	return s.bools[i]
}

// Value returns the value at row i as an interface, or nil for null rows.
func (s *Series) Value(i int) any {
	if s.IsNull(i) {
		return nil
	}
	switch s.dtype {
	case Float64:
		return s.floats[i]
	case Int64:
		return s.ints[i]
	case String:
		return s.strAt(i)
	case Bool:
		return s.bools[i]
	}
	return nil
}

// FormatValue renders row i as a string, using "" for nulls (CSV style).
func (s *Series) FormatValue(i int) string {
	if s.IsNull(i) {
		return ""
	}
	switch s.dtype {
	case Float64:
		return strconv.FormatFloat(s.floats[i], 'g', -1, 64)
	case Int64:
		return strconv.FormatInt(s.ints[i], 10)
	case String:
		return s.strAt(i)
	case Bool:
		return strconv.FormatBool(s.bools[i])
	}
	return ""
}

// Floats returns a copy of the column as float64s (Int64 columns widened),
// with nulls as NaN. Panics for String/Bool columns. The copy dispatches
// on the column type once, not per cell.
func (s *Series) Floats() []float64 {
	out := make([]float64, s.Len())
	switch s.dtype {
	case Float64:
		copy(out, s.floats)
	case Int64:
		for i, v := range s.ints {
			out[i] = float64(v)
		}
	default:
		for i := range out {
			out[i] = s.Float(i) // panics with the per-cell message
		}
	}
	if s.nulls != nil {
		for i, isNull := range s.nulls {
			if isNull {
				out[i] = math.NaN()
			}
		}
	}
	return out
}

// Strings returns a copy of the column rendered as strings (nulls as "",
// matching FormatValue). The copy dispatches on the column type once,
// not per cell.
func (s *Series) Strings() []string {
	out := make([]string, s.Len())
	switch s.dtype {
	case Float64:
		for i, v := range s.floats {
			out[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
	case Int64:
		for i, v := range s.ints {
			out[i] = strconv.FormatInt(v, 10)
		}
	case String:
		if s.dict != nil {
			for i, c := range s.codes {
				out[i] = s.dict[c]
			}
		} else {
			copy(out, s.strings)
		}
	case Bool:
		for i, v := range s.bools {
			out[i] = strconv.FormatBool(v)
		}
	}
	if s.nulls != nil {
		for i, isNull := range s.nulls {
			if isNull {
				out[i] = ""
			}
		}
	}
	return out
}

// Take returns a new series containing the rows at the given indices, in
// order. Indices may repeat. Panics on out-of-range indices.
func (s *Series) Take(idx []int) *Series {
	c := &Series{name: s.name, dtype: s.dtype}
	switch s.dtype {
	case Float64:
		c.floats = make([]float64, len(idx))
		for j, i := range idx {
			c.floats[j] = s.floats[i]
		}
	case Int64:
		c.ints = make([]int64, len(idx))
		for j, i := range idx {
			c.ints[j] = s.ints[i]
		}
	case String:
		if s.dict != nil {
			c.codes = make([]int32, len(idx))
			for j, i := range idx {
				c.codes[j] = s.codes[i]
			}
			c.dict = s.dict // immutable after construction; shared
		} else {
			c.strings = make([]string, len(idx))
			for j, i := range idx {
				c.strings[j] = s.strings[i]
			}
		}
	case Bool:
		c.bools = make([]bool, len(idx))
		for j, i := range idx {
			c.bools[j] = s.bools[i]
		}
	}
	if s.nulls != nil {
		c.nulls = make([]bool, len(idx))
		for j, i := range idx {
			c.nulls[j] = s.nulls[i]
		}
	}
	return c
}

// Slice returns rows [lo, hi) as a new series.
func (s *Series) Slice(lo, hi int) *Series {
	if lo < 0 || hi < lo || hi > s.Len() {
		panic(fmt.Sprintf("frame: Slice[%d:%d) out of range for %q (len %d)", lo, hi, s.name, s.Len()))
	}
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	return s.Take(idx)
}

// Equal reports whether two series have the same name, dtype, length,
// null mask, and values. Float comparison uses exact equality with NaN==NaN.
func (s *Series) Equal(o *Series) bool {
	if s.name != o.name || s.dtype != o.dtype || s.Len() != o.Len() {
		return false
	}
	for i := 0; i < s.Len(); i++ {
		if s.IsNull(i) != o.IsNull(i) {
			return false
		}
		if s.IsNull(i) {
			continue
		}
		switch s.dtype {
		case Float64:
			a, b := s.floats[i], o.floats[i]
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				return false
			}
		case Int64:
			if s.ints[i] != o.ints[i] {
				return false
			}
		case String:
			if s.strAt(i) != o.strAt(i) {
				return false
			}
		case Bool:
			if s.bools[i] != o.bools[i] {
				return false
			}
		}
	}
	return true
}

// Levels returns the distinct non-null values of the column rendered as
// strings, in first-appearance order. Used for categorical handling
// (sensitive groups, one-hot encoding). Dict-encoded columns scan
// codes against a seen-bitmap instead of hashing every value.
func (s *Series) Levels() []string {
	if s.dict != nil {
		seen := make([]bool, len(s.dict))
		var out []string
		for i, c := range s.codes {
			if seen[c] || (s.nulls != nil && s.nulls[i]) {
				continue
			}
			seen[c] = true
			out = append(out, s.dict[c])
		}
		return out
	}
	seen := map[string]bool{}
	var out []string
	for i := 0; i < s.Len(); i++ {
		if s.IsNull(i) {
			continue
		}
		v := s.FormatValue(i)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// appendStringPayload fills merged with the concatenated string payload
// of parts (same-schema String columns, rows in total). When every part
// is dict-encoded the result keeps the first part's dictionary extended
// with each later part's novel levels and remaps their codes — O(levels)
// dictionary work, O(rows) code copies, no per-row hashing. Any plain
// part materializes the result plain.
func appendStringPayload(merged *Series, parts []*Series, rows int) {
	allDict := true
	for _, p := range parts {
		allDict = allDict && p.dict != nil
	}
	if allDict {
		dict := append(make([]string, 0, len(parts[0].dict)), parts[0].dict...)
		idx := make(map[string]int32, len(dict))
		for i, v := range dict {
			idx[v] = int32(i)
		}
		codes := append(make([]int32, 0, rows), parts[0].codes...)
		for _, p := range parts[1:] {
			remap := make([]int32, len(p.dict))
			for i, v := range p.dict {
				c, ok := idx[v]
				if !ok {
					c = int32(len(dict))
					dict = append(dict, v)
					idx[v] = c
				}
				remap[i] = c
			}
			for _, c := range p.codes {
				codes = append(codes, remap[c])
			}
		}
		merged.codes, merged.dict = codes, dict
		return
	}
	out := make([]string, 0, rows)
	for _, p := range parts {
		for i := 0; i < p.Len(); i++ {
			out = append(out, p.strAt(i))
		}
	}
	merged.strings = out
}

// Map returns a new float64 series with fn applied to every non-null row of
// a numeric column; null rows stay null.
func (s *Series) Map(name string, fn func(float64) float64) *Series {
	out := &Series{name: name, dtype: Float64, floats: make([]float64, s.Len())}
	for i := 0; i < s.Len(); i++ {
		if s.IsNull(i) {
			out.SetNull(i)
			continue
		}
		out.floats[i] = fn(s.Float(i))
	}
	return out
}
