// Command benchcmp is the benchmark regression gate CI runs: it
// compares a fresh benchjson document (BENCH_ci.json) against the
// committed baseline documents (BENCH_7.json, BENCH_8.json, ...) and
// exits non-zero when any shared headline benchmark's throughput
// dropped by more than the threshold. Throughput is any "per-second"
// metric benchjson captured (rows/s, req/s, windows/s, records/s,
// audits/s) — higher is better; entries without one fall back to
// ns/op, lower is better.
//
//	go run ./scripts/benchcmp -current BENCH_ci.json BENCH_7.json BENCH_8.json
//
// Baselines are applied in argument order and later files win, so a
// newer era's committed numbers supersede an older era's for the
// benchmarks both recorded while benchmarks only the old era ran are
// still gated. An entry is compared only with a baseline recorded at
// the same GOMAXPROCS (benchjson's procs); baselines from before
// benchjson recorded procs match by name alone. Benchmarks present on
// only one side are ignored: the gate guards regressions, not coverage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// entry mirrors the benchjson document schema (scripts/benchjson).
type entry struct {
	Name    string             `json:"name"`
	Procs   int                `json:"procs,omitempty"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// baseKey identifies a baseline entry by name and GOMAXPROCS; procs is
// 0 in baselines recorded before benchjson kept it.
type baseKey struct {
	name  string
	procs int
}

// addBaseline folds one baseline document's entries into base, later
// entries overwriting earlier ones with the same key.
func addBaseline(base map[baseKey]entry, entries []entry) {
	for _, e := range entries {
		base[baseKey{e.Name, e.Procs}] = e
	}
}

// baselineFor returns c's baseline: the one recorded at c's procs, or
// else one recorded without procs, which matches by name alone.
func baselineFor(base map[baseKey]entry, c entry) (entry, bool) {
	if b, ok := base[baseKey{c.Name, c.Procs}]; ok {
		return b, true
	}
	b, ok := base[baseKey{c.Name, 0}]
	return b, ok
}

// doc mirrors the top-level benchjson document.
type doc struct {
	Entries []entry `json:"entries"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main behind a testable seam: it parses args with its own
// FlagSet, runs the gate, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	current := fs.String("current", "BENCH_ci.json", "fresh benchjson document to gate")
	threshold := fs.Float64("threshold", 0.20, "fail when throughput drops more than this fraction below baseline")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "benchcmp: need at least one baseline file argument")
		return 2
	}
	cur, err := load(*current)
	if err != nil {
		fmt.Fprintf(stderr, "benchcmp: %v\n", err)
		return 1
	}
	base := map[baseKey]entry{}
	for _, path := range fs.Args() {
		d, err := load(path)
		if err != nil {
			fmt.Fprintf(stderr, "benchcmp: %v\n", err)
			return 1
		}
		addBaseline(base, d.Entries)
	}
	regressions := Compare(base, cur.Entries, *threshold, stdout)
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(stderr, "benchcmp: REGRESSION "+r)
		}
		return 1
	}
	fmt.Fprintf(stdout, "benchcmp: %d shared benchmark(s) within %.0f%% of baseline\n", shared(base, cur.Entries), *threshold*100)
	return 0
}

// Compare checks every current entry that has a baseline in base and
// returns a description of each regression past the threshold. Matched
// comparisons are logged to out as they happen so CI shows the ratios
// even when everything passes.
func Compare(base map[baseKey]entry, current []entry, threshold float64, out io.Writer) []string {
	var regressions []string
	sorted := append([]entry(nil), current...)
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].Name != sorted[b].Name {
			return sorted[a].Name < sorted[b].Name
		}
		return sorted[a].Procs < sorted[b].Procs
	})
	for _, c := range sorted {
		b, ok := baselineFor(base, c)
		if !ok {
			continue
		}
		name := c.Name
		if c.Procs > 0 {
			name = fmt.Sprintf("%s-%d", c.Name, c.Procs)
		}
		metric, bv, cv, higherBetter := pickMetric(b, c)
		if metric == "" || bv <= 0 || cv <= 0 {
			continue
		}
		ratio := cv / bv
		status := "ok"
		bad := (higherBetter && ratio < 1-threshold) || (!higherBetter && ratio > 1/(1-threshold))
		if bad {
			status = "REGRESSION"
			regressions = append(regressions, fmt.Sprintf("%s: %s %.4g -> %.4g (%.1f%% of baseline)",
				name, metric, bv, cv, ratio*100))
		}
		if out != nil {
			fmt.Fprintf(out, "%-55s %-10s %12.4g -> %-12.4g %6.1f%%  %s\n", name, metric, bv, cv, ratio*100, status)
		}
	}
	return regressions
}

// pickMetric chooses the comparison metric two entries share: the
// first (alphabetical) "per-second" throughput metric both report, or
// ns/op when there is none. higherBetter reports the direction.
func pickMetric(b, c entry) (name string, bv, cv float64, higherBetter bool) {
	keys := make([]string, 0, len(b.Metrics))
	for k := range b.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if len(k) > 2 && k[len(k)-2:] == "/s" {
			if cvv, ok := c.Metrics[k]; ok {
				return k, b.Metrics[k], cvv, true
			}
		}
	}
	if b.NsPerOp > 0 && c.NsPerOp > 0 {
		return "ns/op", b.NsPerOp, c.NsPerOp, false
	}
	return "", 0, 0, false
}

// shared counts current entries with a baseline counterpart.
func shared(base map[baseKey]entry, current []entry) int {
	n := 0
	for _, e := range current {
		if _, ok := baselineFor(base, e); ok {
			n++
		}
	}
	return n
}

// load reads one benchjson document.
func load(path string) (*doc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d doc
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.Entries) == 0 {
		return nil, fmt.Errorf("%s: no benchmark entries", path)
	}
	return &d, nil
}
