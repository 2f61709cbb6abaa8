package frame

import (
	"fmt"
	"sort"
	"strings"
)

// Frame is an ordered collection of equal-length named columns.
// The zero value is an empty frame. Frames are immutable by convention:
// operations return new frames and never modify their receivers.
type Frame struct {
	cols   []*Series
	byName map[string]int
}

// New constructs a frame from columns. All columns must have distinct names
// and identical lengths.
func New(cols ...*Series) (*Frame, error) {
	f := &Frame{byName: make(map[string]int, len(cols))}
	for _, c := range cols {
		if err := f.addColumn(c); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// MustNew is New, panicking on error. Intended for literals in tests and
// generators where the shape is statically known.
func MustNew(cols ...*Series) *Frame {
	f, err := New(cols...)
	if err != nil {
		panic(err)
	}
	return f
}

func (f *Frame) addColumn(c *Series) error {
	if c == nil {
		return fmt.Errorf("frame: nil column")
	}
	if c.Name() == "" {
		return fmt.Errorf("frame: column with empty name")
	}
	if _, dup := f.byName[c.Name()]; dup {
		return fmt.Errorf("frame: duplicate column %q", c.Name())
	}
	if len(f.cols) > 0 && c.Len() != f.cols[0].Len() {
		return fmt.Errorf("frame: column %q has %d rows, frame has %d",
			c.Name(), c.Len(), f.cols[0].Len())
	}
	f.byName[c.Name()] = len(f.cols)
	f.cols = append(f.cols, c)
	return nil
}

// NumRows returns the row count.
func (f *Frame) NumRows() int {
	if len(f.cols) == 0 {
		return 0
	}
	return f.cols[0].Len()
}

// NumCols returns the column count.
func (f *Frame) NumCols() int { return len(f.cols) }

// Names returns the column names in order.
func (f *Frame) Names() []string {
	out := make([]string, len(f.cols))
	for i, c := range f.cols {
		out[i] = c.Name()
	}
	return out
}

// Has reports whether a column exists.
func (f *Frame) Has(name string) bool {
	_, ok := f.byName[name]
	return ok
}

// Col returns the named column or an error.
func (f *Frame) Col(name string) (*Series, error) {
	i, ok := f.byName[name]
	if !ok {
		return nil, fmt.Errorf("frame: no column %q (have %s)", name, strings.Join(f.Names(), ", "))
	}
	return f.cols[i], nil
}

// MustCol returns the named column, panicking if absent.
func (f *Frame) MustCol(name string) *Series {
	c, err := f.Col(name)
	if err != nil {
		panic(err)
	}
	return c
}

// ColAt returns the column at position i.
func (f *Frame) ColAt(i int) *Series { return f.cols[i] }

// Select returns a new frame containing only the named columns, in the
// given order.
func (f *Frame) Select(names ...string) (*Frame, error) {
	out := &Frame{byName: make(map[string]int, len(names))}
	for _, n := range names {
		c, err := f.Col(n)
		if err != nil {
			return nil, err
		}
		if err := out.addColumn(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Drop returns a new frame without the named columns. Unknown names are an
// error so that pipelines fail loudly on schema drift.
func (f *Frame) Drop(names ...string) (*Frame, error) {
	dropping := map[string]bool{}
	for _, n := range names {
		if !f.Has(n) {
			return nil, fmt.Errorf("frame: Drop: no column %q", n)
		}
		dropping[n] = true
	}
	var keep []string
	for _, n := range f.Names() {
		if !dropping[n] {
			keep = append(keep, n)
		}
	}
	return f.Select(keep...)
}

// WithColumn returns a new frame with the column appended, or replaced if a
// column of the same name already exists (in place, preserving order).
func (f *Frame) WithColumn(c *Series) (*Frame, error) {
	if c == nil {
		return nil, fmt.Errorf("frame: WithColumn nil column")
	}
	if f.NumCols() > 0 && c.Len() != f.NumRows() {
		return nil, fmt.Errorf("frame: WithColumn %q has %d rows, frame has %d",
			c.Name(), c.Len(), f.NumRows())
	}
	out := &Frame{byName: make(map[string]int, len(f.cols)+1)}
	replaced := false
	for _, existing := range f.cols {
		col := existing
		if existing.Name() == c.Name() {
			col = c
			replaced = true
		}
		if err := out.addColumn(col); err != nil {
			return nil, err
		}
	}
	if !replaced {
		if err := out.addColumn(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Take returns a new frame with the rows at idx, in order (repeats allowed).
func (f *Frame) Take(idx []int) *Frame {
	out := &Frame{byName: make(map[string]int, len(f.cols))}
	for _, c := range f.cols {
		// addColumn cannot fail here: names already unique, lengths equal.
		_ = out.addColumn(c.Take(idx))
	}
	return out
}

// Slice returns rows [lo, hi) as a new frame.
func (f *Frame) Slice(lo, hi int) *Frame {
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	return f.Take(idx)
}

// Head returns the first n rows (or all rows if fewer).
func (f *Frame) Head(n int) *Frame {
	if n > f.NumRows() {
		n = f.NumRows()
	}
	return f.Slice(0, n)
}

// Filter returns the rows for which keep returns true. keep receives the
// row index and can interrogate any column.
func (f *Frame) Filter(keep func(row int) bool) *Frame {
	var idx []int
	for i := 0; i < f.NumRows(); i++ {
		if keep(i) {
			idx = append(idx, i)
		}
	}
	return f.Take(idx)
}

// FilterEq returns the rows where the named column renders equal to value
// (string comparison over FormatValue, null rows never match).
func (f *Frame) FilterEq(col, value string) (*Frame, error) {
	s, err := f.Col(col)
	if err != nil {
		return nil, err
	}
	return f.Filter(func(i int) bool {
		return !s.IsNull(i) && s.FormatValue(i) == value
	}), nil
}

// SortBy returns a new frame sorted ascending by the named columns
// (stable; nulls sort first). Prefix a name with '-' for descending.
func (f *Frame) SortBy(names ...string) (*Frame, error) {
	type key struct {
		col  *Series
		desc bool
	}
	keys := make([]key, 0, len(names))
	for _, n := range names {
		desc := false
		if strings.HasPrefix(n, "-") {
			desc = true
			n = n[1:]
		}
		c, err := f.Col(n)
		if err != nil {
			return nil, err
		}
		keys = append(keys, key{c, desc})
	}
	idx := make([]int, f.NumRows())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		for _, k := range keys {
			c := compareRows(k.col, ia, ib)
			if k.desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return f.Take(idx), nil
}

// compareRows orders two rows of one column: nulls first, then by value.
func compareRows(s *Series, i, j int) int {
	ni, nj := s.IsNull(i), s.IsNull(j)
	switch {
	case ni && nj:
		return 0
	case ni:
		return -1
	case nj:
		return 1
	}
	switch s.DType() {
	case Float64, Int64:
		a, b := s.Float(i), s.Float(j)
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case String:
		return strings.Compare(s.strAt(i), s.strAt(j))
	case Bool:
		a, b := s.bools[i], s.bools[j]
		switch {
		case !a && b:
			return -1
		case a && !b:
			return 1
		}
		return 0
	}
	return 0
}

// Append returns the vertical concatenation of f and gs, in order, with
// each column sized once at the total length; with no gs it returns f.
// Schemas must match exactly (names, order, dtypes). The result is the
// one a chain of two-frame appends would build: a String column stays
// dictionary-encoded when every part is, keeping f's dictionary
// extended with each later part's novel levels in order; a plain part
// makes it plain.
func (f *Frame) Append(gs ...*Frame) (*Frame, error) {
	for _, g := range gs {
		if f.NumCols() != g.NumCols() {
			return nil, fmt.Errorf("frame: Append schema mismatch: %d vs %d columns", f.NumCols(), g.NumCols())
		}
		for i, c := range f.cols {
			if o := g.cols[i]; c.Name() != o.Name() || c.DType() != o.DType() {
				return nil, fmt.Errorf("frame: Append column %d mismatch: %s %s vs %s %s",
					i, c.Name(), c.DType(), o.Name(), o.DType())
			}
		}
	}
	if len(gs) == 0 {
		return f, nil
	}
	out := &Frame{byName: make(map[string]int, len(f.cols))}
	frames := append([]*Frame{f}, gs...)
	parts := make([]*Series, len(frames))
	for i, c := range f.cols {
		rows, nulls := 0, false
		for j, fr := range frames {
			parts[j] = fr.cols[i]
			rows += parts[j].Len()
			nulls = nulls || parts[j].nulls != nil
		}
		merged := &Series{
			name:   c.Name(),
			dtype:  c.DType(),
			floats: concatParts(parts, func(s *Series) []float64 { return s.floats }),
			ints:   concatParts(parts, func(s *Series) []int64 { return s.ints }),
			bools:  concatParts(parts, func(s *Series) []bool { return s.bools }),
		}
		if c.DType() == String {
			appendStringPayload(merged, parts, rows)
		}
		if nulls {
			merged.nulls = make([]bool, 0, rows)
			for _, p := range parts {
				for r := 0; r < p.Len(); r++ {
					merged.nulls = append(merged.nulls, p.IsNull(r))
				}
			}
		}
		if err := out.addColumn(merged); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// concatParts concatenates one payload slice across parts, nil when
// the parts hold none.
func concatParts[T any](parts []*Series, payload func(*Series) []T) []T {
	n := 0
	for _, p := range parts {
		n += len(payload(p))
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, payload(p)...)
	}
	return out
}

// Equal reports whether two frames are identical in schema and content.
func (f *Frame) Equal(g *Frame) bool {
	if f.NumCols() != g.NumCols() {
		return false
	}
	for i, c := range f.cols {
		if !c.Equal(g.cols[i]) {
			return false
		}
	}
	return true
}

// String renders the first rows of the frame as a fixed-width table,
// suitable for debugging output.
func (f *Frame) String() string {
	const maxRows = 10
	var b strings.Builder
	fmt.Fprintf(&b, "Frame[%d rows x %d cols]\n", f.NumRows(), f.NumCols())
	widths := make([]int, f.NumCols())
	for i, c := range f.cols {
		widths[i] = len(c.Name())
		for r := 0; r < f.NumRows() && r < maxRows; r++ {
			if l := len(c.FormatValue(r)); l > widths[i] {
				widths[i] = l
			}
		}
	}
	for i, c := range f.cols {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c.Name())
	}
	b.WriteByte('\n')
	for r := 0; r < f.NumRows() && r < maxRows; r++ {
		for i, c := range f.cols {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c.FormatValue(r))
		}
		b.WriteByte('\n')
	}
	if f.NumRows() > maxRows {
		fmt.Fprintf(&b, "... (%d more rows)\n", f.NumRows()-maxRows)
	}
	return b.String()
}
