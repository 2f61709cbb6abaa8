package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: github.com/responsible-data-science/rds
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSlidingReaudit/delta=1%/incremental         	       3	 332322845 ns/op	   3009160 rows/s	         3.009 windows/s
BenchmarkSlidingReaudit/delta=1%/rescan              	       1	8709246862 ns/op	    114821 rows/s	         0.1148 windows/s
BenchmarkShardedAudit/shards=8-8   	      12	  95000000 ns/op	  10526315 rows/s	    1024 B/op	       7 allocs/op
PASS
ok  	github.com/responsible-data-science/rds	53.843s
`

func TestParseSample(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || !strings.Contains(doc.CPU, "Xeon") {
		t.Fatalf("context = %q/%q/%q", doc.Goos, doc.Goarch, doc.CPU)
	}
	if len(doc.Entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(doc.Entries))
	}
	e := doc.Entries[0]
	if e.Name != "BenchmarkSlidingReaudit/delta=1%/incremental" {
		t.Errorf("name = %q", e.Name)
	}
	if e.Pkg != "github.com/responsible-data-science/rds" {
		t.Errorf("pkg = %q", e.Pkg)
	}
	if e.Iterations != 3 || e.NsPerOp != 332322845 {
		t.Errorf("iters/ns = %d/%v", e.Iterations, e.NsPerOp)
	}
	if e.Metrics["rows/s"] != 3009160 || e.Metrics["windows/s"] != 3.009 {
		t.Errorf("metrics = %v", e.Metrics)
	}
	if e.Procs != 1 {
		t.Errorf("no -N suffix means GOMAXPROCS 1, got procs %d", e.Procs)
	}
	sharded := doc.Entries[2]
	if sharded.Name != "BenchmarkShardedAudit/shards=8" || sharded.Procs != 8 {
		t.Errorf("GOMAXPROCS suffix not moved to procs: %q procs %d", sharded.Name, sharded.Procs)
	}
	if sharded.Metrics["B/op"] != 1024 || sharded.Metrics["allocs/op"] != 7 {
		t.Errorf("benchmem metrics = %v", sharded.Metrics)
	}
}

func TestParseLineRejects(t *testing.T) {
	for _, line := range []string{
		"BenchmarkFoo",                   // name printed alone before result
		"BenchmarkFoo 12",                // no measurements
		"BenchmarkFoo twelve 3 ns/op x",  // non-numeric iterations
		"BenchmarkFoo 12 abc ns/op junk", // non-numeric value
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parseLine accepted %q", line)
		}
	}
	e, ok := parseLine("BenchmarkBare-16 5 100 ns/op")
	if !ok || e.Name != "BenchmarkBare" || e.Procs != 16 || e.NsPerOp != 100 || len(e.Metrics) != 0 {
		t.Errorf("parseLine minimal = %+v, %v", e, ok)
	}
}

func TestProcsInJSON(t *testing.T) {
	doc, err := parse(strings.NewReader("BenchmarkA/rows=2000-2 5 100 ns/op 3 audits/s\nBenchmarkB 7 10 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"BenchmarkA/rows=2000","procs":2`, `"name":"BenchmarkB","procs":1`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("JSON %s lacks %s", raw, want)
		}
	}
}

func TestParseEmpty(t *testing.T) {
	doc, err := parse(strings.NewReader("PASS\nok pkg 1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Entries) != 0 {
		t.Fatalf("entries = %d, want 0", len(doc.Entries))
	}
}

func TestFoldRepeatedRunsIntoMedians(t *testing.T) {
	in := `pkg: p
BenchmarkA-2 5 300 ns/op 30 rows/s 7 B/op
BenchmarkB 10 50 ns/op
BenchmarkA-2 5 100 ns/op 10 rows/s 7 B/op
BenchmarkA-4 5 900 ns/op 90 rows/s
BenchmarkA-2 6 200 ns/op 20 rows/s 9 B/op
BenchmarkB 12 70 ns/op
`
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Entries) != 3 {
		t.Fatalf("entries = %+v, want A-2, B and A-4 once each", doc.Entries)
	}
	a, b, a4 := doc.Entries[0], doc.Entries[1], doc.Entries[2]
	if a.Name != "BenchmarkA" || a.Procs != 2 || b.Name != "BenchmarkB" || a4.Procs != 4 {
		t.Fatalf("order = %s-%d, %s, %s-%d; want each benchmark at its first line",
			a.Name, a.Procs, b.Name, a4.Name, a4.Procs)
	}
	if a.Runs != 3 || a.NsPerOp != 200 || a.Iterations != 5 || a.Metrics["rows/s"] != 20 || a.Metrics["B/op"] != 7 {
		t.Errorf("odd count: %+v, want the middle value of each field", a)
	}
	if b.Runs != 2 || b.NsPerOp != 60 || b.Iterations != 11 || b.Metrics != nil {
		t.Errorf("even count: %+v, want the mean of the two middle values", b)
	}
	if a4.Runs != 1 || a4.NsPerOp != 900 || a4.Metrics["rows/s"] != 90 {
		t.Errorf("a single line at other procs: %+v, want it unchanged", a4)
	}
}

func TestFoldKeepsPackagesApart(t *testing.T) {
	doc, err := parse(strings.NewReader("pkg: p\nBenchmarkA 1 10 ns/op\npkg: q\nBenchmarkA 1 30 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Entries) != 2 || doc.Entries[0].NsPerOp != 10 || doc.Entries[1].NsPerOp != 30 {
		t.Fatalf("entries = %+v, want one per package", doc.Entries)
	}
}
