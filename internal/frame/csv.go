package frame

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// utf8BOM is the UTF-8 byte-order mark Excel prepends to exported CSVs.
const utf8BOM = "\uFEFF"

// ReadCSV parses CSV data with a header row into a Frame, inferring
// column types. It reads r to the end into one string and parses that
// in place, as ReadCSVString does, so it holds the whole input while it
// parses. When r knows its size (a strings.Reader, bytes.Reader or
// bytes.Buffer, or a regular *os.File) the string is allocated once at
// that size; otherwise it grows as r is read.
//
// Records follow encoding/csv with LazyQuotes off: fields are separated
// by commas, a quoted field may hold commas, newlines and "" escapes, a
// bare quote in an unquoted field or text after a closing quote is an
// error, an unterminated quote is an error, empty lines outside quotes
// are skipped, CRLF line ends read as LF (a final CR at the end of the
// input is dropped), and every record must have the header's field
// count. Errors name the 1-based line they were found on.
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
	var b strings.Builder
	b.Grow(sizeHint(r))
	if _, err := io.Copy(&b, r); err != nil {
		return nil, fmt.Errorf("frame: reading csv: %w", err)
	}
	return ReadCSVString(b.String())
}

// sizeHint returns how many bytes r still holds when r can tell
// cheaply, else 0.
func sizeHint(r io.Reader) int {
	switch r := r.(type) {
	case interface{ Len() int }:
		return r.Len()
	case *os.File:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return int(fi.Size())
		}
	}
	return 0
}

// ReadCSVString is ReadCSV over an in-memory string, which it parses in
// place: each cell is a substring of s (a quoted cell holding "" escapes
// or a CRLF is unescaped into a copy) until type inference turns it
// into a number or a cloned dictionary level. Header names are cloned
// too, so the frame never keeps s reachable.
func ReadCSVString(s string) (*Frame, error) {
	sc := csvScanner{s: strings.TrimPrefix(s, utf8BOM), line: 1}
	ok, err := sc.next()
	if err != nil {
		return nil, fmt.Errorf("frame: reading csv header: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("frame: csv has no header row")
	}
	names := make([]string, len(sc.fields))
	for j, name := range sc.fields {
		names[j] = strings.Clone(strings.TrimSpace(name))
	}

	// Each record ends at a newline (or the end of the input) and holds
	// at least one byte besides it (an empty line is no record) and a
	// comma per extra field, which bounds the row count twice over.
	rest := sc.s[sc.pos:]
	rows := min(strings.Count(rest, "\n")+1, len(rest)/max(2, len(names))+1)
	raws := make([][]string, len(names))
	for j := range raws {
		raws[j] = make([]string, 0, rows)
	}
	for {
		ok, err := sc.next()
		if err != nil {
			return nil, fmt.Errorf("frame: reading csv: %w", err)
		}
		if !ok {
			break
		}
		if len(sc.fields) != len(names) {
			return nil, fmt.Errorf("frame: reading csv: line %d: record has %d fields, header has %d",
				sc.recLine, len(sc.fields), len(names))
		}
		for j, v := range sc.fields {
			raws[j] = append(raws[j], trimCell(v))
		}
	}

	cols := make([]*Series, len(names))
	for j, name := range names {
		cols[j] = inferSeries(name, raws[j])
	}
	return New(cols...)
}

// trimCell is strings.TrimSpace with the common case, a cell that
// starts and ends in printable ASCII, inlined.
func trimCell(v string) string {
	if v != "" && v[0]-'!' < '~'-'!'+1 && v[len(v)-1]-'!' < '~'-'!'+1 {
		return v
	}
	return strings.TrimSpace(v)
}

// csvScanner splits an in-memory CSV into records.
type csvScanner struct {
	s       string
	pos     int      // offset of the next unread byte
	line    int      // 1-based line of s[pos]
	recLine int      // line the last record started on
	fields  []string // the last record's raw fields, reused per record
}

// csvStop marks the bytes that end a run of unquoted field text.
var csvStop = [256]bool{',': true, '\n': true, '"': true}

// next parses the next record into sc.fields, skipping empty lines.
// ok is false at the end of the input.
func (sc *csvScanner) next() (ok bool, err error) {
	s := sc.s
	for sc.pos < len(s) {
		// An empty line is a bare LF, a CRLF, or a CR ending the input.
		if c := s[sc.pos]; c == '\n' || c == '\r' && (sc.pos+1 == len(s) || s[sc.pos+1] == '\n') {
			if sc.pos++; c == '\r' && sc.pos < len(s) {
				sc.pos++
			}
			sc.line++
			continue
		}
		sc.recLine = sc.line
		sc.fields = sc.fields[:0]
		for i, start := sc.pos, sc.pos; ; i++ {
			for i < len(s) && !csvStop[s[i]] {
				i++
			}
			if i < len(s) && s[i] == ',' {
				sc.fields = append(sc.fields, s[start:i])
				start = i + 1
				continue
			}
			if i < len(s) && s[i] == '"' {
				sc.fields = sc.fields[:0]
				return true, sc.quotedRecord()
			}
			sc.fields = append(sc.fields, strings.TrimSuffix(s[start:i], "\r"))
			sc.endRecord(i)
			return true, nil
		}
	}
	return false, nil
}

// quotedRecord parses the record at sc.pos, whose first line holds a
// '"', into sc.fields. It is next's split done field by field, since a
// quoted field may run over several lines.
func (sc *csvScanner) quotedRecord() error {
	s, i := sc.s, sc.pos
	for {
		if i < len(s) && s[i] == '"' {
			start, startLine, escaped := i+1, sc.line, false
			for i = start; ; i++ {
				q := strings.IndexByte(s[i:], '"')
				if q < 0 {
					return fmt.Errorf("line %d: quoted field is never closed", startLine)
				}
				i += q + 1
				if i == len(s) || s[i] != '"' {
					break
				}
				escaped = true
			}
			field := s[start : i-1]
			sc.line += strings.Count(field, "\n")
			if escaped || strings.Contains(field, "\r\n") {
				field = unescapeQuoted(field)
			}
			sc.fields = append(sc.fields, field)
			switch {
			case i < len(s) && s[i] == ',':
				i++
				continue
			case i == len(s) || s[i] == '\n':
			case s[i] == '\r' && (i+1 == len(s) || s[i+1] == '\n'):
				i++
			default:
				return fmt.Errorf("line %d: text after the closing quote of a quoted field", sc.line)
			}
			sc.endRecord(i)
			return nil
		}
		j := i
		for ; j < len(s) && s[j] != ',' && s[j] != '\n'; j++ {
			if s[j] == '"' {
				return fmt.Errorf("line %d: bare \" in an unquoted field", sc.line)
			}
		}
		if j < len(s) && s[j] == ',' {
			sc.fields = append(sc.fields, s[i:j])
			i = j + 1
			continue
		}
		sc.fields = append(sc.fields, strings.TrimSuffix(s[i:j], "\r"))
		sc.endRecord(j)
		return nil
	}
}

// endRecord moves past the newline at s[i], or to the end of the input.
func (sc *csvScanner) endRecord(i int) {
	sc.pos = min(i+1, len(sc.s))
	sc.line++
}

// unescapeQuoted returns a quoted field's text with each "" read as "
// and each CRLF as LF.
func unescapeQuoted(raw string) string {
	var b strings.Builder
	b.Grow(len(raw))
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		switch {
		case c == '"':
			i++ // the field's quotes come in pairs
		case c == '\r' && i+1 < len(raw) && raw[i+1] == '\n':
			continue
		}
		b.WriteByte(c)
	}
	return b.String()
}

// inferSeries picks the narrowest type for a column of trimmed cell
// text (Int64, Float64, Bool, String, with the NaN/Inf guard described
// on ReadCSV) and builds the typed series. The inference pass keeps the
// ints and floats it parses, so a numeric cell is parsed once. A float
// column whose first cells are ints parses those cells again as floats
// at its first non-int float: ParseFloat("-0") is -0, which converting
// the parsed int would turn into +0.
func inferSeries(name string, raw []string) *Series {
	n := len(raw)
	isInt, isFloat, isBool := true, true, true
	hasFinite, hasNonFinite := false, false
	var ints []int64
	var floats []float64
	var nulls []bool
	for i, v := range raw {
		if v == "" {
			if nulls == nil {
				nulls = make([]bool, n)
			}
			nulls[i] = true
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
					floats = make([]float64, n)
					for k, u := range raw[:i] {
						if u != "" {
							floats[k], _ = strconv.ParseFloat(u, 64)
						}
					}
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
	s.nulls = nulls
	if set != nil {
		for i, v := range raw {
			if v != "" {
				set(i, v)
			}
		}
	}
	if finish != nil {
		finish()
	}
	return s
}

// dictFallbackMinRows is the smallest column the mostly-unique
// heuristic in dictColumn applies to; shorter columns always encode
// (the dictionary is tiny either way).
const dictFallbackMinRows = 16

// dictColumn builds a String column dictionary-encoded as it is set:
// each distinct cell is cloned once into the dictionary (raw cells are
// substrings of the whole CSV input — storing them as-is would pin the
// entire input behind one short cell and blow the resident-size
// accounting the registry budget relies on) and rows store int32
// codes. finish() applies the cardinality guard: columns
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
		if _, err := io.WriteString(w, utf8BOM); err != nil {
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
