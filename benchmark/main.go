// Command benchmark measures rds-serve as a client sees it. It builds
// ./cmd/rds-serve from the tree, starts a fresh server with default
// flags (only -addr is set), drives one workload against it over HTTP
// from this one process, checks every response, and prints the
// end-to-end metrics as the last line of standard output, one JSON
// object. With -trace 1 it prints per-layer metrics instead: the
// server's /metrics deltas over the same traffic, and a replay of the
// workload's inputs in-process through each layer's public functions
// with a span around every call.
//
// Run it from the repository root through run.sh, which keeps every
// build artefact inside .bench_build/:
//
//	bash benchmark/run.sh --workload audit-ref-2k --seed 1 --seconds 35 --trace 0
//
// See README.md for the workloads, the metrics and how the layers map
// onto them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/serve"
)

// setupRepeats is how many fresh servers a run sets up before the
// traffic, the last of which serves it, and again after it; setup_s is
// the median of all of them, so it samples the host at both ends of the
// run.
const setupRepeats = 5

type options struct {
	root     string
	workload string
	seed     uint64
	seconds  float64
	warmup   float64
	trace    int
	jsonOut  string
	spansOut string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.root, "root", ".", "repository root to build rds-serve from")
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed every request body is generated from")
	fs.Float64Var(&o.seconds, "seconds", 35, "measured seconds")
	fs.Float64Var(&o.warmup, "warmup", 5, "warm-up seconds before measuring")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	fs.StringVar(&o.jsonOut, "json", "", "also write the full result, with the run environment, to this file")
	fs.StringVar(&o.spansOut, "spans", "", "with -trace 1, write the replay's spans to this file as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	case o.seconds <= 0 || o.warmup < 0:
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -warmup non-negative")
		return 2
	case o.trace != 0 && o.trace != 1:
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}

	rep, err := execute(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if o.jsonOut != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(o.jsonOut, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark: writing -json:", err)
			return 1
		}
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Result.Correct {
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends its output with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full record of one run, written by -json.
type report struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Warmup   float64     `json:"warmup"`
	Trace    int         `json:"trace"`
	Env      environment `json:"env"`
	Result   result      `json:"result"`
	// SetupS holds each set-up's time; setup_s is their median.
	SetupS []float64 `json:"setup_s"`
	// Samples counts the measured operations behind the latency
	// percentiles, and TailSupported whether at least minBeyond of them
	// lie beyond p90.
	Samples       int  `json:"samples"`
	TailSupported bool `json:"tail_supported"`
	// Failures lists the first failed operations and checks.
	Failures []string `json:"failures,omitempty"`
	// Layers is the traced replay's self time by span name (-trace 1),
	// over ReplayOps operations.
	Layers    map[string]*layerStat `json:"layers,omitempty"`
	ReplayOps int                   `json:"replay_ops,omitempty"`
}

// environment records what the numbers were measured on.
type environment struct {
	NProc            int     `json:"nproc"`
	ClientGOMAXPROCS int     `json:"client_gomaxprocs"`
	ServerGOMAXPROCS int     `json:"server_gomaxprocs"`
	CPU              string  `json:"cpu"`
	GoVersion        string  `json:"go_version"`
	Commit           string  `json:"commit"`
	StealPct         float64 `json:"steal_pct"`
	MaxLateMS        float64 `json:"max_late_ms"`
}

func execute(o options, log io.Writer) (*report, error) {
	// The client mostly waits on the server. One P keeps its goroutines
	// and its garbage collector from competing with the server for more
	// than one core.
	runtime.GOMAXPROCS(1)
	rep := &report{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Warmup: o.warmup, Trace: o.trace}
	rep.Env = environment{
		NProc: runtime.NumCPU(), ClientGOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), GoVersion: runtime.Version(), Commit: commit(o.root),
	}
	in, err := generate(o.workload, o.seed, seconds(o.warmup+o.seconds))
	if err != nil {
		return nil, err
	}
	bin, err := buildServer(o.root)
	if err != nil {
		return nil, err
	}
	before, after := setupRepeats, setupRepeats
	if o.trace == 1 {
		before, after = 1, 0
	}
	e, err := measure(bin, in, o, before, after)
	if err != nil {
		return nil, err
	}
	rep.Env.ServerGOMAXPROCS, rep.Env.StealPct, rep.Env.MaxLateMS = e.serverProcs, e.stealPct, ms(e.traffic.maxLate)
	rep.SetupS = e.setup
	res, lat := e.summarize()
	rep.Result = res
	rep.Samples, rep.TailSupported = len(lat), tailSupported(len(lat), tailQuantile)
	for _, err := range e.errs() {
		if len(rep.Failures) == 10 {
			break
		}
		rep.Failures = append(rep.Failures, err.Error())
	}
	fmt.Fprintf(log, "%s seed=%d nproc=%d gomaxprocs client=%d server=%d cpu=%q %s commit=%s steal=%.2f%% max_late=%.1fms\n",
		o.workload, o.seed, rep.Env.NProc, rep.Env.ClientGOMAXPROCS, rep.Env.ServerGOMAXPROCS, rep.Env.CPU,
		rep.Env.GoVersion, rep.Env.Commit, rep.Env.StealPct, rep.Env.MaxLateMS)
	fmt.Fprintf(log, "set-up seconds %.4f; %d measured operations, %d attempted, %d failed\n",
		e.setup, rep.Samples, res.Attempted, res.Failed)
	if !rep.TailSupported {
		fmt.Fprintf(log, "warning: only %d samples lie beyond p90 (want %d)\n", beyond(len(lat), tailQuantile), minBeyond)
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(log, "failure:", f)
	}
	printMetrics(log, res.Metrics)
	if o.trace == 0 {
		return rep, nil
	}

	// The traced run: per-layer metrics replace the end-to-end ones. The
	// replay stands in for the server, so it runs with the server's
	// default GOMAXPROCS.
	runtime.GOMAXPROCS(runtime.NumCPU())
	tr := newTracer()
	ops, err := replay(tr, in, replayOps[o.workload])
	if err != nil {
		return nil, err
	}
	if o.spansOut != "" {
		if err := tr.writeJSONL(o.spansOut); err != nil {
			return nil, fmt.Errorf("writing -spans: %w", err)
		}
	}
	rep.Layers, rep.ReplayOps = tr.layers(), ops
	rep.Result.Metrics = perLayer(rep.Layers, ops, e)
	fmt.Fprintf(log, "traced replay: %d operations\n", ops)
	printLayers(log, rep.Layers, ops)
	printReconciliation(log, o.workload, rep.Layers, e.after.P50ExecMillis)
	printMetrics(log, rep.Result.Metrics)
	return rep, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// serverMetrics is the part of GET /metrics the benchmark reads.
type serverMetrics struct {
	serve.Snapshot
	ChunkStates dataset.StateSnapshot `json:"chunk_states"`
}

// e2eRun is what one end-to-end measurement observed.
type e2eRun struct {
	setup         []float64
	traffic       *traffic
	rssMB         float64
	before, after serverMetrics
	stealPct      float64
	serverProcs   int
}

// measure sets up `before` fresh servers one after another, timing
// each, drives the workload against the last one, and then times
// `after` more set-ups of fresh servers that serve nothing.
func measure(bin string, in *inputs, o options, before, after int) (*e2eRun, error) {
	c := newClient(conns)
	e := &e2eRun{}
	var (
		srv *server
		st  *setupState
	)
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	// setUp replaces srv with a fresh, set-up server and records how
	// long that took.
	setUp := func() error {
		if srv != nil {
			srv.stop()
			srv = nil
			c.hc.CloseIdleConnections()
		}
		t0 := time.Now()
		s, err := startServer(bin)
		if err != nil {
			return err
		}
		srv = s
		if err := srv.waitHealthy(c, 30*time.Second); err != nil {
			return err
		}
		if st, err = setup(c, srv.base, in); err != nil {
			return err
		}
		e.setup = append(e.setup, time.Since(t0).Seconds())
		return nil
	}
	for k := 0; k < before; k++ {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	if err := c.getJSON(srv.base+"/metrics", &e.before); err != nil {
		return nil, err
	}
	steal0, total0 := cpuSteal()
	start := time.Now()
	t := &traffic{
		c: c, base: srv.base, in: in, st: st,
		start: start, warmEnd: start.Add(seconds(o.warmup)), end: start.Add(seconds(o.warmup + o.seconds)),
	}
	t.run()
	steal1, total1 := cpuSteal()
	if total1 > total0 {
		e.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	e.traffic = t
	if err := c.getJSON(srv.base+"/metrics", &e.after); err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	e.rssMB, e.serverProcs = rss, srv.gomaxprocs()
	for k := 0; k < after; k++ {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// errs lists every failed operation and end-of-run check.
func (e *e2eRun) errs() []error {
	var out []error
	for _, s := range e.traffic.samples {
		if s.err != nil {
			out = append(out, s.err)
		}
	}
	return append(out, e.traffic.checks...)
}

// summarize computes the end-to-end metrics over the operations due in
// the measured window and returns the sorted latencies (ms) behind
// them.
func (e *e2eRun) summarize() (result, []float64) {
	t := e.traffic
	var lat []float64
	last := t.warmEnd
	for _, s := range t.samples {
		if s.err != nil || s.due.Before(t.warmEnd) || !s.due.Before(t.end) {
			continue
		}
		if s.end.After(last) {
			last = s.end
		}
		lat = append(lat, ms(s.end.Sub(s.due)))
	}
	sort.Float64s(lat)
	// Throughput counts the operations due in the measured window over
	// the time until the last of them finished.
	var opsPerS float64
	if len(lat) > 0 {
		opsPerS = float64(len(lat)) / last.Sub(t.warmEnd).Seconds()
	}
	failed := len(e.errs())
	res := result{
		Correct:   failed == 0,
		Attempted: len(t.samples) + len(t.checks),
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":     {median(e.setup), "s"},
			"ops_per_s":   {opsPerS, "1/s"},
			"p50_ms":      {quantile(lat, 0.5), "ms"},
			"p90_ms":      {quantile(lat, tailQuantile), "ms"},
			"rss_peak_mb": {e.rssMB, "MB"},
		},
	}
	return res, lat
}

// tracedLayers are the span names reported as per-layer metrics: every
// workload's replay calls each of them, so none reads 0.
var tracedLayers = []string{
	"http.decode", "frame.read_csv", "frame.hash",
	"provenance.hash_frame", "ml.from_frame", "ml.subset", "ml.train_logistic", "ml.predict",
	"fairness.evaluate", "explain.fit_surrogate", "http.encode",
	"core.load", "core.train", "core.audit",
}

// perLayer turns the replay's spans and the server's /metrics deltas
// into the per-layer metrics.
func perLayer(layers map[string]*layerStat, ops int, e *e2eRun) map[string]metric {
	out := map[string]metric{}
	for _, name := range tracedLayers {
		var v float64
		if st := layers[name]; st != nil {
			v = float64(st.SelfNS) / 1e6 / float64(ops)
		}
		out[name+"_ms"] = metric{v, "ms/op"}
	}
	for _, name := range []string{"monitor.ingest", "monitor.chunk_score"} {
		var v float64
		if st := layers[name]; st != nil && st.SelfNS > 0 {
			v = float64(st.Rows) / (float64(st.SelfNS) / 1e9)
		}
		out[name+"_rows_per_s"] = metric{v, "rows/s"}
	}
	b, a := e.before, e.after
	out["serve.exec_p50_ms"] = metric{a.P50ExecMillis, "ms"}
	out["serve.cache_hit_ratio"] = metric{ratio(a.CacheHits-b.CacheHits, a.CacheHits+a.CacheMisses-b.CacheHits-b.CacheMisses), "ratio"}
	out["dataset.chunk_state_hit_ratio"] = metric{ratio(a.ChunkStates.Hits-b.ChunkStates.Hits,
		a.ChunkStates.Hits+a.ChunkStates.Misses-b.ChunkStates.Hits-b.ChunkStates.Misses), "ratio"}
	return out
}

func ratio(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// leafLayers are the spans of the leaf pass, which together replay the
// core.* spans of the composite pass.
var leafLayers = []string{
	"provenance.hash_frame", "ml.from_frame", "ml.subset", "ml.train_logistic", "ml.predict",
	"fairness.evaluate", "explain.fit_surrogate",
}

// printReconciliation compares the leaf spans with the core calls they
// replay, and, for the audit workloads, the traced core time per audit
// with the server's own executed-audit p50 (the tracing gap).
func printReconciliation(w io.Writer, workload string, layers map[string]*layerStat, execP50 float64) {
	sum := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			if st := layers[n]; st != nil {
				ns += st.SelfNS
			}
		}
		return float64(ns) / 1e6
	}
	leaves, cores := sum(leafLayers...), sum("core.load", "core.train", "core.audit")
	if cores > 0 {
		fmt.Fprintf(w, "leaf spans %.1f ms = %.3f x core.load+train+audit %.1f ms\n", leaves, leaves/cores, cores)
	}
	if workload == "monitor-stream" {
		return
	}
	if st := layers["core.load"]; st != nil && st.Count > 0 {
		perAudit := sum("core.load", "core.train", "core.audit") / float64(st.Count)
		fmt.Fprintf(w, "tracing gap: traced core per audit %.2f ms - server exec p50 %.2f ms = %+.2f ms\n",
			perAudit, execP50, perAudit-execP50)
	}
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the checkout's git HEAD, or "unavailable" outside a
// git work tree.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unavailable"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unavailable"
	}
	return strings.TrimSpace(string(out))
}

// cpuSteal reads the steal and total jiffies from /proc/stat's
// aggregate cpu line (zeros when unreadable).
func cpuSteal() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal
	for i, s := range fields[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
