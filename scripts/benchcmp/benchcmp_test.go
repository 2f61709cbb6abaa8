package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func e(name string, ns float64, metrics map[string]float64) entry {
	return entry{Name: name, NsPerOp: ns, Metrics: metrics}
}

// atProcs returns en as recorded at GOMAXPROCS procs.
func atProcs(en entry, procs int) entry {
	en.Procs = procs
	return en
}

// baseOf folds entries into a baseline map the way run does.
func baseOf(entries ...entry) map[baseKey]entry {
	base := map[baseKey]entry{}
	addBaseline(base, entries)
	return base
}

func TestCompareThroughputRegression(t *testing.T) {
	base := baseOf(e("BenchmarkShardedAudit/shards=1", 100, map[string]float64{"rows/s": 20_000_000}))
	// 25% throughput drop: past the 20% gate.
	cur := []entry{e("BenchmarkShardedAudit/shards=1", 130, map[string]float64{"rows/s": 15_000_000})}
	regs := Compare(base, cur, 0.20, nil)
	if len(regs) != 1 || !strings.Contains(regs[0], "rows/s") {
		t.Fatalf("want one rows/s regression, got %v", regs)
	}
	// 15% drop: within tolerance.
	cur = []entry{e("BenchmarkShardedAudit/shards=1", 115, map[string]float64{"rows/s": 17_000_000})}
	if regs := Compare(base, cur, 0.20, nil); len(regs) != 0 {
		t.Fatalf("15%% drop should pass, got %v", regs)
	}
	// Improvement never fails.
	cur = []entry{e("BenchmarkShardedAudit/shards=1", 50, map[string]float64{"rows/s": 40_000_000})}
	if regs := Compare(base, cur, 0.20, nil); len(regs) != 0 {
		t.Fatalf("improvement flagged: %v", regs)
	}
}

func TestCompareNsPerOpFallback(t *testing.T) {
	base := baseOf(e("BenchmarkX", 100, nil))
	// ns/op is lower-better: 100 -> 150 is a 33% slowdown, past the gate.
	if regs := Compare(base, []entry{e("BenchmarkX", 150, nil)}, 0.20, nil); len(regs) != 1 {
		t.Fatalf("ns/op slowdown should fail, got %v", regs)
	}
	// 100 -> 110 stays inside the 20% budget (110 < 100/0.8).
	if regs := Compare(base, []entry{e("BenchmarkX", 110, nil)}, 0.20, nil); len(regs) != 0 {
		t.Fatalf("small ns/op slowdown should pass, got %v", regs)
	}
}

func TestCompareIgnoresUnsharedEntries(t *testing.T) {
	base := baseOf(e("BenchmarkOld", 100, map[string]float64{"rows/s": 1000}))
	cur := []entry{e("BenchmarkNew", 100, map[string]float64{"rows/s": 1})}
	if regs := Compare(base, cur, 0.20, nil); len(regs) != 0 {
		t.Fatalf("unshared benchmarks must not gate, got %v", regs)
	}
}

func TestCompareLaterBaselineWins(t *testing.T) {
	// run folds baseline files in order with later entries
	// overwriting; simulate the fold here.
	base := map[baseKey]entry{}
	for _, d := range [][]entry{
		{e("BenchmarkShardedAudit/shards=1", 0, map[string]float64{"rows/s": 4_700_000})},  // era 7
		{e("BenchmarkShardedAudit/shards=1", 0, map[string]float64{"rows/s": 20_000_000})}, // era 8
	} {
		addBaseline(base, d)
	}
	// 10M rows/s beats era 7 but regresses era 8 — the newer baseline
	// must be the one that gates.
	cur := []entry{e("BenchmarkShardedAudit/shards=1", 0, map[string]float64{"rows/s": 10_000_000})}
	if regs := Compare(base, cur, 0.20, nil); len(regs) != 1 {
		t.Fatalf("newer baseline should gate, got %v", regs)
	}
}

func TestCompareOnlyLikeProcs(t *testing.T) {
	base := baseOf(atProcs(e("BenchmarkAuditPhases/rows=20000/audit", 0, map[string]float64{"audits/s": 16}), 2))
	// A run at GOMAXPROCS 1 is not compared with a baseline taken at 2,
	// however slow it is.
	slowOne := []entry{atProcs(e("BenchmarkAuditPhases/rows=20000/audit", 0, map[string]float64{"audits/s": 4}), 1)}
	if regs := Compare(base, slowOne, 0.20, nil); len(regs) != 0 || shared(base, slowOne) != 0 {
		t.Fatalf("procs 1 compared with a procs 2 baseline: %v", regs)
	}
	slowTwo := []entry{atProcs(e("BenchmarkAuditPhases/rows=20000/audit", 0, map[string]float64{"audits/s": 4}), 2)}
	if regs := Compare(base, slowTwo, 0.20, nil); len(regs) != 1 || shared(base, slowTwo) != 1 {
		t.Fatalf("procs 2 regression against a procs 2 baseline not flagged: %v", regs)
	}
}

func TestCompareLegacyBaselineMatchesByName(t *testing.T) {
	// A baseline without procs predates benchjson recording it: it
	// gates an entry of that name at any procs.
	legacy := e("BenchmarkFairDequeue/tenants=8", 0, map[string]float64{"jobs/s": 1000})
	cur := []entry{atProcs(e("BenchmarkFairDequeue/tenants=8", 0, map[string]float64{"jobs/s": 500}), 2)}
	if regs := Compare(baseOf(legacy), cur, 0.20, nil); len(regs) != 1 {
		t.Fatalf("legacy baseline should gate by name, got %v", regs)
	}
	// A baseline at the entry's own procs takes precedence over it.
	base := baseOf(legacy, atProcs(e("BenchmarkFairDequeue/tenants=8", 0, map[string]float64{"jobs/s": 550}), 2))
	if regs := Compare(base, cur, 0.20, nil); len(regs) != 0 {
		t.Fatalf("same-procs baseline should win over the legacy one, got %v", regs)
	}
}

// writeDoc writes a benchjson document with the given entries to a
// temp file and returns its path.
func writeDoc(t *testing.T, name string, entries ...entry) string {
	t.Helper()
	raw, err := json.Marshal(doc{Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunGateEndToEnd(t *testing.T) {
	era7 := writeDoc(t, "BENCH_7.json",
		e("BenchmarkShardedAudit/shards=1", 0, map[string]float64{"rows/s": 4_700_000}),
		e("BenchmarkOldOnly", 100, nil))
	era8 := writeDoc(t, "BENCH_8.json",
		e("BenchmarkShardedAudit/shards=1", 0, map[string]float64{"rows/s": 16_000_000}))

	var stdout, stderr bytes.Buffer
	ciOK := writeDoc(t, "ci_ok.json",
		e("BenchmarkShardedAudit/shards=1", 0, map[string]float64{"rows/s": 15_500_000}))
	if code := run([]string{"-current", ciOK, era7, era8}, &stdout, &stderr); code != 0 {
		t.Fatalf("healthy run = %d, want 0; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "1 shared benchmark(s)") {
		t.Fatalf("stdout missing pass summary: %q", stdout.String())
	}

	// Beats era 7 but regresses era 8 — the later baseline gates.
	stdout.Reset()
	stderr.Reset()
	ciBad := writeDoc(t, "ci_bad.json",
		e("BenchmarkShardedAudit/shards=1", 0, map[string]float64{"rows/s": 10_000_000}))
	if code := run([]string{"-current", ciBad, era7, era8}, &stdout, &stderr); code != 1 {
		t.Fatalf("regressed run = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "REGRESSION") {
		t.Fatalf("stderr missing regression report: %q", stderr.String())
	}
}

func TestRunReadsProcs(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "BENCH_15.json")
	cur := filepath.Join(dir, "ci.json")
	write := func(path, body string) {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(base, `{"entries":[{"name":"BenchmarkA","procs":2,"ns_per_op":100}]}`)
	write(cur, `{"entries":[{"name":"BenchmarkA","procs":1,"ns_per_op":1000},{"name":"BenchmarkA","procs":2,"ns_per_op":105}]}`)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-current", cur, base}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, want 0; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "1 shared benchmark(s)") || !strings.Contains(stdout.String(), "BenchmarkA-2") {
		t.Fatalf("want only the procs 2 entry compared, got %q", stdout.String())
	}
}

func TestRunArgumentErrors(t *testing.T) {
	base := writeDoc(t, "base.json", e("BenchmarkX", 100, nil))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown flag: run = %d, want 2", code)
	}
	if code := run([]string{"-current", base}, &stdout, &stderr); code != 2 {
		t.Fatalf("no baselines: run = %d, want 2", code)
	}
	if code := run([]string{"-current", "missing.json", base}, &stdout, &stderr); code != 1 {
		t.Fatalf("missing current: run = %d, want 1", code)
	}
	if code := run([]string{"-current", base, "missing.json"}, &stdout, &stderr); code != 1 {
		t.Fatalf("missing baseline: run = %d, want 1", code)
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{"entries":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-current", empty, base}, &stdout, &stderr); code != 1 {
		t.Fatalf("empty current: run = %d, want 1", code)
	}
	if code := run([]string{"-current", base, empty + "x"}, &stdout, &stderr); code != 1 {
		t.Fatalf("unreadable baseline: run = %d, want 1", code)
	}
}
