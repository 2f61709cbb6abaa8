package frame

import (
	"strings"
	"testing"
)

// readCSVSeeds seeds the CSV fuzzers.
var readCSVSeeds = []string{
	"",
	"id,v\n1,2\n",
	"\uFEFFid,v\n1,2\n",                  // Excel BOM
	"n, s ,b\n 42 , x ,  \n7,y, true \n", // padded cells, null cell
	"v\nNaN\nNaN\n",                      // all-NaN numeric column
	"s\nNaN\nInf\n+Inf\n-Inf\n",          // non-finite literals stay text
	"v\n1.5\nNaN\n-Inf\n",                // mixed finite/non-finite floats
	"a,b\n\"x,y\",\"line\nbreak\"\n",     // quoted separators and newlines
	"a,a\n1,2\n",                         // duplicate header
	",b\n1,2\n",                          // empty header cell
	"a,b\n1\n",                           // ragged row
	"a\r\n1\r\n2\r\n",                    // CRLF
	"x\n9223372036854775807\n",           // int64 max
	"x\n1e309\n",                         // float overflow
	"x\ntrue\nfalse\n\n",                 // bools with trailing blank line
	"héader,ü\n√,∞\n",                    // non-ASCII
	// Dictionary-encoding stress: levels differing only by case or
	// by surrounding whitespace must stay distinct levels.
	"g\nx\nX\n\" x\"\n\"x \"\nx\nX\n",
	// Empty-string level next to a null cell: in a multi-column row
	// "" is a value for string columns, absence for typed ones.
	"g,h\na,1\n\"\",2\nb,\n,4\n",
	// Mostly-unique column: the ingest cardinality policy must keep
	// ID-like columns plain rather than building a useless dict.
	"id,g\nu-001,x\nu-002,x\nu-003,y\nu-004,y\nu-005,x\n",
}

// FuzzReadCSV throws arbitrary bytes at the CSV reader. The parser may
// reject input with an error, but it must never panic, and any frame it
// does produce must be internally consistent: rectangular, hashable,
// deterministic across re-parses, and writable as CSV that parses
// again.
func FuzzReadCSV(f *testing.F) {
	for _, s := range readCSVSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		fr, err := ReadCSVString(input)
		if err != nil {
			return
		}
		rows, cols := fr.NumRows(), fr.NumCols()
		if cols == 0 {
			t.Fatalf("parsed frame has no columns: %q", input)
		}
		for j := 0; j < cols; j++ {
			c := fr.ColAt(j)
			if c.Len() != rows {
				t.Fatalf("column %q has %d rows, frame has %d: %q", c.Name(), c.Len(), rows, input)
			}
			for i := 0; i < rows; i++ {
				_ = c.Value(i) // every cell must be addressable without panic
			}
			if _, dict, ok := c.DictView(); ok {
				// Dictionary invariants: bounded, distinct levels, and a
				// value-identical plain rebuild (representation must be
				// invisible to Equal).
				if len(dict) > rows+1 {
					t.Fatalf("column %q dict has %d levels for %d rows: %q", c.Name(), len(dict), rows, input)
				}
				seen := make(map[string]bool, len(dict))
				for _, lv := range dict {
					if seen[lv] {
						t.Fatalf("column %q dict repeats level %q: %q", c.Name(), lv, input)
					}
					seen[lv] = true
				}
				plain := NewString(c.Name(), c.Strings())
				for i := 0; i < rows; i++ {
					if c.IsNull(i) {
						plain.SetNull(i)
					}
				}
				if !c.Equal(plain) {
					t.Fatalf("column %q: dict and plain rebuild disagree: %q", c.Name(), input)
				}
			}
		}
		if h1, h2 := fr.Hash(), fr.Hash(); h1 != h2 {
			t.Fatalf("Hash not deterministic: %s vs %s", h1, h2)
		}
		again, err := ReadCSVString(input)
		if err != nil {
			t.Fatalf("re-parse of accepted input failed: %v: %q", err, input)
		}
		if !fr.Equal(again) {
			t.Fatalf("re-parse not deterministic: %q", input)
		}
		var sb strings.Builder
		if err := fr.WriteCSV(&sb); err != nil {
			t.Fatalf("WriteCSV of parsed frame failed: %v: %q", err, input)
		}
		back, err := ReadCSVString(sb.String())
		if err != nil {
			t.Fatalf("round-trip parse failed: %v\ncsv: %q\ninput: %q", err, sb.String(), input)
		}
		// Round-trip row preservation has one documented loss: in a
		// single-column frame a null/empty cell writes as a blank line,
		// which the reader skips (multi-column rows keep their commas).
		wantRows := rows
		if cols == 1 {
			wantRows = 0
			c := fr.ColAt(0)
			for i := 0; i < rows; i++ {
				if c.FormatValue(i) != "" {
					wantRows++
				}
			}
		}
		if back.NumRows() != wantRows || back.NumCols() != cols {
			t.Fatalf("round-trip shape %dx%d, want %dx%d: %q", back.NumRows(), back.NumCols(), wantRows, cols, input)
		}
	})
}
