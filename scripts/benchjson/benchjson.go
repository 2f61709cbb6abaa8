// Command benchjson converts `go test -bench` text output into a JSON
// document the repo commits as BENCH_<n>.json and CI uploads as an
// artifact, so benchmark history is diffable instead of buried in logs.
// It reads bench output on stdin (or from a file argument) and writes a
// JSON object to stdout or to the path given with -o:
//
//	go test -run NONE -bench . -benchmem ./... | go run ./scripts/benchjson -o BENCH_ci.json
//
// Each benchmark line becomes an entry keyed by its full sub-benchmark
// name, carrying the GOMAXPROCS it ran at (the name's -N suffix, which
// go test omits at 1) as procs, iterations, ns/op, and every extra
// metric the benchmark reported (rows/s, windows/s, B/op, allocs/op,
// ...). Context lines (goos, goarch, cpu, pkg) are captured as they
// appear and attached to subsequent entries.
//
// Repeated lines of one benchmark, as `go test -count N` prints them,
// fold into one entry holding their medians (ns/op, iterations and
// each metric), with runs counting the lines, so one noisy run cannot
// move a gated number on its own.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// benchEntry is one parsed benchmark result line.
type benchEntry struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Procs      int                `json:"procs"`
	Runs       int                `json:"runs"` // result lines folded into this entry
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// benchDoc is the JSON document benchjson emits.
type benchDoc struct {
	Goos    string       `json:"goos,omitempty"`
	Goarch  string       `json:"goarch,omitempty"`
	CPU     string       `json:"cpu,omitempty"`
	Entries []benchEntry `json:"entries"`
}

func main() {
	out := flag.String("o", "", "write JSON here instead of stdout")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	doc, err := parse(in)
	if err != nil {
		fatal(err)
	}
	if len(doc.Entries) == 0 {
		fatal(fmt.Errorf("no benchmark result lines found in input"))
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(1)
}

// parse scans go-test bench output, collecting context lines and every
// line that starts with "Benchmark".
func parse(r io.Reader) (*benchDoc, error) {
	doc := &benchDoc{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			e, ok := parseLine(line)
			if !ok {
				continue // e.g. "BenchmarkFoo" printed alone before its result
			}
			e.Pkg = pkg
			doc.Entries = append(doc.Entries, e)
		}
	}
	doc.Entries = fold(doc.Entries)
	return doc, sc.Err()
}

// fold merges the entries of one benchmark (same package, name and
// procs) into one at the position of its first line: ns/op, iterations
// and each metric become their median over the merged entries, and
// Runs counts them.
func fold(entries []benchEntry) []benchEntry {
	type key struct {
		pkg, name string
		procs     int
	}
	groups := map[key][]benchEntry{}
	var order []key
	for _, e := range entries {
		k := key{e.Pkg, e.Name, e.Procs}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], e)
	}
	out := make([]benchEntry, 0, len(order))
	for _, k := range order {
		runs := groups[k]
		ns := make([]float64, len(runs))
		iters := make([]float64, len(runs))
		metrics := map[string][]float64{}
		for i, r := range runs {
			ns[i], iters[i] = r.NsPerOp, float64(r.Iterations)
			for unit, v := range r.Metrics {
				metrics[unit] = append(metrics[unit], v)
			}
		}
		e := runs[0]
		e.Runs, e.NsPerOp, e.Iterations, e.Metrics = len(runs), median(ns), int64(median(iters)), nil
		for unit, vs := range metrics {
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[unit] = median(vs)
		}
		out = append(out, e)
	}
	return out
}

// median returns the middle of vs, or the mean of the two middle
// values when len(vs) is even. It sorts vs in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}

// parseLine parses one result line of the form
//
//	BenchmarkName-8  123  45678 ns/op  9.1 rows/s  2 allocs/op
//
// into a benchEntry. The -N GOMAXPROCS suffix moves from the name to
// Procs (1 when absent); every "<value> <unit>" pair after the
// iteration count becomes either ns_per_op or a named metric.
func parseLine(line string) (benchEntry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return benchEntry{}, false
	}
	name, procs := fields[0], 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
			name, procs = name[:i], n
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchEntry{}, false
	}
	e := benchEntry{Name: name, Procs: procs, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchEntry{}, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			e.NsPerOp = val
			continue
		}
		if e.Metrics == nil {
			e.Metrics = map[string]float64{}
		}
		e.Metrics[unit] = val
	}
	return e, true
}
