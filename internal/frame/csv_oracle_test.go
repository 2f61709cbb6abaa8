package frame

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"
)

// readCSV is ReadCSV as it was before the in-memory scanner: the
// encoding/csv record loop (LazyQuotes off) under ReadCSV's cleanup
// rules, with the per-column type inference as a parameter. It is the
// oracle for FuzzReadCSVMatchesEncodingCSV and, with the two-pass
// inference, for FuzzReadCSVMatchesTwoPass.
func readCSV(r io.Reader, infer func(string, []string) *Series) (*Frame, error) {
	br := bufio.NewReader(r)
	if lead, err := br.Peek(len(utf8BOM)); err == nil && string(lead) == utf8BOM {
		if _, err := br.Discard(len(utf8BOM)); err != nil {
			return nil, fmt.Errorf("frame: reading csv: %w", err)
		}
	}
	cr := csv.NewReader(br)
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

	raws := make([][]string, len(names))
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
			raws[j] = append(raws[j], strings.TrimSpace(rec[j]))
		}
	}

	cols := make([]*Series, len(names))
	for j, name := range names {
		cols[j] = infer(name, raws[j])
	}
	return New(cols...)
}

// FuzzReadCSVMatchesEncodingCSV checks the in-memory scanner against
// the encoding/csv reader it replaced: both accept or both reject, and
// an accepted input gives the same shape, dtypes, nulls and Frame.Hash.
func FuzzReadCSVMatchesEncodingCSV(f *testing.F) {
	seeds := append([]string{
		"\uFEFFa,b\n1,2\n",                        // one leading BOM stripped
		"\uFEFF\uFEFFa\nx\n",                      // only one
		"\n\uFEFFa\nx\n",                          // not after an empty line
		"\n\na,b\n\n1,2\n\n\n3,4\n\n",             // empty lines skipped
		"a\n\"x\n\ny\"\n",                         // but not inside quotes
		"a,b\r\n1,2\r\n3,4",                       // CRLF
		"a,b\r\n1,2\r",                            // a final CR dropped
		"a\r\n\r\n1\r",                            // a CRLF-only line is empty
		"a\nx\ry\n\r\r\n",                         // a bare CR is data
		"a\n\"x\r\ny\"\r\n\"p\rq\"\n",             // CRLF inside quotes reads as LF
		"a,b\n\"x,y\",\"say \"\"hi\"\"\"\n",       // quoted commas and escapes
		"a,b\n\"\",\"\"\"\"\n\"\"\"x\",y\n",       // empty and quote-only fields
		"a\nx\"y\n",                               // bare quote: error
		"a\n \"x\"\n",                             // a quote after a space is bare
		"a\n\"x\"y\n",                             // text after a closing quote
		"a\n\"x\" \n",                             // even a space
		"a,b\n\"x\"\r,1\n",                        // or a CR not ending the line
		"a\n\"x\"\r\n\"y\"\r",                     // a CR that ends it is fine
		"a\n\"x\n",                                // unterminated quote
		"a\n\"x\"\"\n",                            // an escape is no close
		"a\n\"x\"\"\"",                            // closed at the end of input
		"a,b\n1\n",                                // too few fields
		"a,b\n1,2,3\n",                            // too many
		"a,b\n1,\n,\n",                            // trailing commas are empty fields
		" a , b \n 1 , \n\t2\t,\"  \"\n",          // trimmed names and cells, nulls
		"\"a\nb\",c\n1,2\n",                       // a header name over two lines
		"a\n\"1\"\n\" 2 \"\n",                     // quoted numbers stay numbers
		"a,b\n\"x\"\"\n\"\"y\",1\n\"z\",2\n",      // an escape next to a newline
		"a\n\"x\"\"\r\n\"\n",                      // CRLF after an escape
		"a,b\n\"\n1,2\n",                          // a quote runs over the next record
		"\"a\"\"b\",c\n1,2\n\"3\",\"4\"\r\n5,6\r", // quotes on every kind of line
	}, readCSVSeeds...)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		got, err := ReadCSVString(input)
		want, werr := readCSV(strings.NewReader(input), inferSeries)
		if (err == nil) != (werr == nil) {
			t.Fatalf("ReadCSVString error %v, encoding/csv error %v: %q", err, werr, input)
		}
		if err != nil {
			if !strings.Contains(err.Error(), "line ") && !strings.Contains(err.Error(), "no header") &&
				!strings.HasPrefix(err.Error(), "frame: column") && !strings.HasPrefix(err.Error(), "frame: duplicate") {
				t.Fatalf("error names no line: %v: %q", err, input)
			}
			return
		}
		if got.NumCols() != want.NumCols() || got.NumRows() != want.NumRows() {
			t.Fatalf("shape %dx%d, encoding/csv %dx%d: %q", got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols(), input)
		}
		for j := 0; j < got.NumCols(); j++ {
			g, w := got.ColAt(j), want.ColAt(j)
			if g.Name() != w.Name() || g.DType() != w.DType() {
				t.Fatalf("column %d is %q %v, encoding/csv %q %v: %q", j, g.Name(), g.DType(), w.Name(), w.DType(), input)
			}
			for i := 0; i < g.Len(); i++ {
				if g.IsNull(i) != w.IsNull(i) {
					t.Fatalf("column %d row %d null %v, encoding/csv %v: %q", j, i, g.IsNull(i), w.IsNull(i), input)
				}
			}
		}
		if g, w := got.Hash(), want.Hash(); g != w {
			t.Fatalf("hash %s, encoding/csv %s: %q", g, w, input)
		}
	})
}

// TestReadCSVErrorsNameTheLine checks that each kind of rejected input
// names the line the fault is on.
func TestReadCSVErrorsNameTheLine(t *testing.T) {
	for _, tc := range []struct{ input, want string }{
		{"a,b\n1,2\n\n3\n", "line 4"},
		{"a\nx\n\"y\"z\n", "line 3"},
		{"a\n\"x\ny\"\nb\"c\n", "line 4"},
		{"a\nx\n\n\"open\n", "line 4"},
		{"a\"b\n", "line 1"},
	} {
		_, err := ReadCSVString(tc.input)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReadCSVString(%q) error %v, want one naming %s", tc.input, err, tc.want)
		}
	}
}

// TestReadCSVRetainsNothingOfInput checks that no string in a parsed
// frame points into the input: a frame kept after its request (a
// finished job, a resident dataset) must not pin the request body.
func TestReadCSVRetainsNothingOfInput(t *testing.T) {
	var b strings.Builder
	b.WriteString("  id , group ,score,  note  \n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "user-%04d, g%d ,%d.5,\"n \"\"%d\"\"\"\n", i, i%3, i, i%2)
	}
	input := b.String()
	f, err := ReadCSVString(input)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, dict := f.MustCol("id").DictView(); dict {
		t.Fatal("id column is dictionary-encoded, want the plain ID-like case")
	}
	if _, _, dict := f.MustCol("group").DictView(); !dict {
		t.Fatal("group column is plain, want the dictionary case")
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(input)))
	hi := lo + uintptr(len(input))
	inInput := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return len(s) > 0 && p >= lo && p < hi
	}
	for j := 0; j < f.NumCols(); j++ {
		c := f.ColAt(j)
		if inInput(c.Name()) {
			t.Errorf("column name %q points into the input", c.Name())
		}
		for _, v := range append(append([]string(nil), c.strings...), c.dict...) {
			if inInput(v) {
				t.Errorf("column %q: cell %q points into the input", c.Name(), v)
			}
		}
	}
}

// TestReadCSVFromEveryReader checks that ReadCSV gives the frame
// ReadCSVString gives, whether its reader reports a size (a file, a
// strings.Reader) or not.
func TestReadCSVFromEveryReader(t *testing.T) {
	const text = "id,v,g\n1,2.5,a\n2,,b\n"
	want, err := ReadCSVString(text)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for name, r := range map[string]io.Reader{
		"file":           file,
		"strings.Reader": strings.NewReader(text),
		"unsized":        io.MultiReader(strings.NewReader(text)),
	} {
		got, err := ReadCSV(r)
		if err != nil || !got.Equal(want) || got.Hash() != want.Hash() {
			t.Errorf("%s: ReadCSV = %v, %v; want the ReadCSVString frame", name, got, err)
		}
	}
}
