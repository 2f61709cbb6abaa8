package frame

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// utf8BOM is the UTF-8 byte-order mark Excel prepends to exported CSVs.
var utf8BOM = []byte{0xEF, 0xBB, 0xBF}

// csvChunkRows is the fixed block size raw column values accumulate in
// while streaming. Exact-size blocks sidestep append's geometric
// growth, whose cumulative allocation on a million-row column is
// several times the final size.
const csvChunkRows = 8192

// rawColumn accumulates one column's trimmed cell text in fixed-size
// chunks during the streaming parse.
type rawColumn struct {
	chunks [][]string
	n      int
}

func (c *rawColumn) push(v string) {
	if len(c.chunks) == 0 || len(c.chunks[len(c.chunks)-1]) == csvChunkRows {
		c.chunks = append(c.chunks, make([]string, 0, csvChunkRows))
	}
	last := len(c.chunks) - 1
	c.chunks[last] = append(c.chunks[last], v)
	c.n++
}

// ReadCSV parses CSV data with a header row into a Frame, inferring
// column types. The parse streams record by record — the whole file is
// never buffered the way csv.ReadAll would, so peak memory is the
// column values plus the reader's fixed-size scratch.
//
// Cleanup rules, in order:
//
//   - A leading UTF-8 byte-order mark (Excel exports) is stripped, so
//     the first header name is usable with Col as written.
//   - Header names and cell values are whitespace-trimmed, so padded
//     numerics like " 42" stay numeric instead of demoting the column
//     to String.
//   - Cells empty after trimming become nulls.
//
// Type inference scans the whole column and picks the narrowest of:
// Int64, Float64, Bool, String — the same ordering a database loader
// would use, with one guard: literal "NaN"/"Inf"/"+Inf"/"-Inf" cells
// (which strconv.ParseFloat would happily accept) only make a column
// Float64 when the column also contains at least one finite numeric.
// A column of nothing but such literals is almost always text (a
// sentinel export), and coercing it to all-NaN floats silently corrupts
// drift statistics downstream, so it stays String.
func ReadCSV(r io.Reader) (*Frame, error) {
	return readCSV(r, inferChunks)
}

// readCSV is ReadCSV with the per-column type inference as a parameter.
func readCSV(r io.Reader, infer func(string, *rawColumn) *Series) (*Frame, error) {
	br := bufio.NewReader(r)
	if lead, err := br.Peek(len(utf8BOM)); err == nil && bytes.Equal(lead, utf8BOM) {
		if _, err := br.Discard(len(utf8BOM)); err != nil {
			return nil, fmt.Errorf("frame: reading csv: %w", err)
		}
	}
	cr := csv.NewReader(br)
	// Each Read allocates one backing string per record and reuses the
	// field-slice header, so retaining trimmed subslices of the fields
	// is safe and the [][]string record matrix never materializes.
	cr.ReuseRecord = true

	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("frame: csv has no header row")
	}
	if err != nil {
		return nil, fmt.Errorf("frame: reading csv header: %w", err)
	}
	names := make([]string, len(header))
	for j, name := range header {
		names[j] = strings.Clone(strings.TrimSpace(name))
	}

	raws := make([]rawColumn, len(names))
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			// encoding/csv enforces the header's field count, so ragged
			// rows surface here.
			return nil, fmt.Errorf("frame: reading csv: %w", err)
		}
		for j := range names {
			raws[j].push(strings.TrimSpace(rec[j]))
		}
	}

	cols := make([]*Series, len(names))
	for j, name := range names {
		cols[j] = infer(name, &raws[j])
	}
	return New(cols...)
}

// ReadCSVString is ReadCSV over an in-memory string.
func ReadCSVString(s string) (*Frame, error) {
	return ReadCSV(strings.NewReader(s))
}

// inferSeries infers and builds one column from a contiguous slice of
// trimmed cell text (used by in-memory construction and tests); the
// streaming reader goes through inferChunks directly.
func inferSeries(name string, raw []string) *Series {
	return inferChunks(name, &rawColumn{chunks: [][]string{raw}, n: len(raw)})
}

// inferChunks picks the narrowest type for a chunked raw column (Int64,
// Float64, Bool, String, with the NaN/Inf guard described on ReadCSV)
// and builds the typed series. The inference pass keeps the ints and
// floats it parses, so a numeric cell is parsed once. A float column
// whose first cells are ints parses those cells again as floats at its
// first non-int float: ParseFloat("-0") is -0, which converting the
// parsed int would turn into +0.
func inferChunks(name string, raw *rawColumn) *Series {
	n := raw.n
	isInt, isFloat, isBool := true, true, true
	hasFinite, hasNonFinite := false, false
	var ints []int64
	var floats []float64
	i := 0
	for _, chunk := range raw.chunks {
		for _, v := range chunk {
			if v == "" {
				i++
				continue
			}
			if isInt {
				if x, err := strconv.ParseInt(v, 10, 64); err == nil {
					if ints == nil {
						ints = make([]int64, n)
					}
					// Every int is also a finite float.
					ints[i], hasFinite = x, true
				} else {
					isInt, ints = false, nil
				}
			}
			if !isInt && isFloat {
				if f, err := strconv.ParseFloat(v, 64); err != nil {
					isFloat, floats = false, nil
				} else {
					if floats == nil {
						floats = parseFloatPrefix(raw, i)
					}
					floats[i] = f
					if math.IsNaN(f) || math.IsInf(f, 0) {
						hasNonFinite = true
					} else {
						hasFinite = true
					}
				}
			}
			if isBool {
				if _, err := strconv.ParseBool(v); err != nil {
					isBool = false
				}
			}
			i++
		}
	}
	var s *Series
	var set func(i int, v string)
	var finish func()
	switch {
	case isInt:
		if ints == nil {
			ints = make([]int64, n) // every cell is null
		}
		s = &Series{name: name, dtype: Int64, ints: ints}
	// A column whose only parseable floats are NaN/Inf literals falls
	// through to String: see the ReadCSV doc comment.
	case isFloat && (hasFinite || !hasNonFinite):
		s = &Series{name: name, dtype: Float64, floats: floats}
	case isBool:
		s = &Series{name: name, dtype: Bool, bools: make([]bool, n)}
		set = func(i int, v string) { s.bools[i], _ = strconv.ParseBool(v) }
	default:
		s, set, finish = dictColumn(name, n)
	}
	i = 0
	for _, chunk := range raw.chunks {
		for _, v := range chunk {
			if v == "" {
				s.SetNull(i)
			} else if set != nil {
				set(i, v)
			}
			i++
		}
	}
	if finish != nil {
		finish()
	}
	return s
}

// parseFloatPrefix returns a float column for raw with its first end
// cells, all ints or empty, parsed as floats.
func parseFloatPrefix(raw *rawColumn, end int) []float64 {
	floats := make([]float64, raw.n)
	i := 0
	for _, chunk := range raw.chunks {
		for _, v := range chunk {
			if i == end {
				return floats
			}
			if v != "" {
				floats[i], _ = strconv.ParseFloat(v, 64)
			}
			i++
		}
	}
	return floats
}

// dictFallbackMinRows is the smallest column the mostly-unique
// heuristic in dictColumn applies to; shorter columns always encode
// (the dictionary is tiny either way).
const dictFallbackMinRows = 16

// dictColumn builds a String column dictionary-encoded as it streams:
// each distinct cell is cloned once into the dictionary (raw cells are
// subslices of each csv record's shared backing string — storing them
// as-is would pin every row's full bytes behind one short cell and blow
// the resident-size accounting the registry budget relies on) and rows
// store int32 codes. finish() applies the cardinality guard: columns
// that are mostly unique (ID-like — more than half the rows distinct,
// at dictFallbackMinRows rows or more) or that exceed dictMaxLevels
// fall back to the plain representation, where each cell shares the
// dictionary's cloned string.
func dictColumn(name string, n int) (s *Series, set func(int, string), finish func()) {
	s = &Series{name: name, dtype: String, codes: make([]int32, n), dict: []string{}}
	idx := make(map[string]int32, 16)
	lookup := func(v string) int32 {
		c, ok := idx[v]
		if !ok {
			c = int32(len(s.dict))
			s.dict = append(s.dict, strings.Clone(v))
			idx[s.dict[c]] = c
		}
		return c
	}
	set = func(i int, v string) { s.codes[i] = lookup(v) }
	finish = func() {
		// Null rows carry the code of "" so every code indexes the
		// dictionary (and renders as the null's "" either way).
		if s.nulls != nil {
			for i, isNull := range s.nulls {
				if isNull {
					s.codes[i] = lookup("")
				}
			}
		}
		if len(s.dict) > dictMaxLevels || (n >= dictFallbackMinRows && 2*len(s.dict) > n) {
			plain := make([]string, n)
			for i, c := range s.codes {
				plain[i] = s.dict[c]
			}
			s.strings, s.codes, s.dict = plain, nil, nil
		}
	}
	return s, set, finish
}

// WriteCSV serializes the frame as CSV with a header row; nulls render as
// empty cells, making WriteCSV/ReadCSV a lossless round trip for frames
// whose string columns contain no empty strings.
func (f *Frame) WriteCSV(w io.Writer) error {
	names := f.Names()
	// ReadCSV strips one leading UTF-8 BOM from its input (the Excel
	// convention), which would swallow the first character of a column
	// name that itself begins with U+FEFF. Emitting a sacrificial BOM
	// keeps such a header intact through the round trip.
	if len(names) > 0 && strings.HasPrefix(names[0], "\uFEFF") {
		if _, err := w.Write(utf8BOM); err != nil {
			return fmt.Errorf("frame: writing csv header: %w", err)
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(names); err != nil {
		return fmt.Errorf("frame: writing csv header: %w", err)
	}
	rec := make([]string, f.NumCols())
	for r := 0; r < f.NumRows(); r++ {
		for j, c := range f.cols {
			rec[j] = c.FormatValue(r)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("frame: writing csv row %d: %w", r, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// CSVString renders the frame as a CSV string.
func (f *Frame) CSVString() (string, error) {
	var b strings.Builder
	if err := f.WriteCSV(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}
