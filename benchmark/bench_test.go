package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestQuantileIsNearestRank(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q, want float64
	}{{0.5, 5}, {0.9, 9}, {0.95, 10}, {0.01, 1}, {1, 10}} {
		if got := quantile(vals, tc.q); got != tc.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(empty) = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		beyond int
		ok     bool
	}{{100, 10, true}, {99, 9, false}, {1000, 100, true}, {20, 2, false}, {0, 0, false}} {
		if got := beyond(tc.n, tailQuantile); got != tc.beyond {
			t.Errorf("beyond(%d, p90) = %d, want %d", tc.n, got, tc.beyond)
		}
		if got := tailSupported(tc.n, tailQuantile); got != tc.ok {
			t.Errorf("tailSupported(%d, p90) = %v, want %v", tc.n, got, tc.ok)
		}
	}
}

func TestSameSeedSameRequestBodies(t *testing.T) {
	for _, w := range workloadNames {
		a, err := generate(w, 7, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 7, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(w, 8, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(flatten(a), flatten(b)) {
			t.Errorf("%s: seed 7 generated different bodies on two calls", w)
		}
		if bytes.Equal(flatten(a), flatten(c)) {
			t.Errorf("%s: seeds 7 and 8 generated the same bodies", w)
		}
	}
}

func flatten(in *inputs) []byte {
	var b bytes.Buffer
	for _, p := range in.inlineCSV {
		b.Write(p)
	}
	for _, p := range in.batches {
		b.Write(p)
	}
	b.Write(in.refCSV)
	b.Write(in.baselineCSV)
	return b.Bytes()
}

func TestRequestSeedsRepeatOnlyEveryFourth(t *testing.T) {
	seen := map[uint64]int{}
	for j := 0; j < 4000; j++ {
		s := refAuditSeed(42, j)
		if s == 0 {
			t.Fatalf("request %d has seed 0", j)
		}
		seen[s]++
		repeat := j%repeatEvery == repeatEvery-1
		if j > 0 && repeat != (s == refAuditSeed(42, j-1)) {
			t.Fatalf("request %d: repeat=%v but seed equality says otherwise", j, repeat)
		}
	}
	if want := 3000; len(seen) != want {
		t.Errorf("%d distinct seeds, want %d (3 of every 4 requests)", len(seen), want)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		interval = 10 * time.Millisecond
		work     = 30 * time.Millisecond
		n        = 5
	)
	start := time.Now().Add(5 * time.Millisecond)
	tr := &traffic{start: start}
	// One op in flight, each three intervals long: op i can only be
	// sent when op i-1 ends, about (i·work - i·interval) after its due
	// time, and its latency must include that wait.
	tr.openLoop(interval, n, 1, func(int) error {
		time.Sleep(work)
		return nil
	})
	if len(tr.samples) != n {
		t.Fatalf("%d samples, want %d", len(tr.samples), n)
	}
	sort.Slice(tr.samples, func(i, j int) bool { return tr.samples[i].due.Before(tr.samples[j].due) })
	for i, s := range tr.samples {
		if want := start.Add(time.Duration(i) * interval); !s.due.Equal(want) {
			t.Errorf("op %d due %v, want %v", i, s.due.Sub(start), want.Sub(start))
		}
		if min := time.Duration(i+1)*work - time.Duration(i)*interval; s.end.Sub(s.due) < min {
			t.Errorf("op %d latency %v, want at least %v (queued behind earlier ops)", i, s.end.Sub(s.due), min)
		}
	}
	if min := time.Duration(n-1) * (work - interval); tr.maxLate < min {
		t.Errorf("max lateness %v, want at least %v", tr.maxLate, min)
	}
}

func TestReplayCoversEveryReportedLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("replays full audits")
	}
	for _, w := range workloadNames {
		in, err := generate(w, 1, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		n := 2
		if w == "monitor-stream" {
			n = windowBatches + 1 // batch 20 closes the first window
		}
		tr := newTracer()
		if _, err := replay(tr, in, n); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		for i, s := range tr.spans {
			if s.EndNS < s.StartNS || s.Parent > i || (s.Parent > 0 && tr.spans[s.Parent-1].Trace != s.Trace) {
				t.Fatalf("%s: malformed span %+v", w, s)
			}
		}
		layers := tr.layers()
		for _, name := range tracedLayers {
			if st := layers[name]; st == nil || st.Count == 0 || st.SelfNS <= 0 {
				t.Errorf("%s: layer %s not measured: %+v", w, name, st)
			}
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestSmokeEveryWorkloadAgainstTheBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs rds-serve")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	want := func(ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	type runCase struct {
		workload string
		trace    string
		metrics  map[string]string
	}
	cases := []runCase{{"audit-ref-2k", "1", want(spec.PerLayer)}}
	for _, w := range workloadNames {
		cases = append(cases, runCase{w, "0", want(spec.EndToEnd)})
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-root", "..", "-workload", c.workload, "-seed", "1", "-seconds", "1", "-warmup", "0", "-trace", c.trace}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("%s trace %s: exit %d\n%s", c.workload, c.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s trace %s: last line: %v", c.workload, c.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", c.workload, c.trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(c.metrics) {
			t.Errorf("%s trace %s: %d metrics, BENCHMARK.json lists %d", c.workload, c.trace, len(res.Metrics), len(c.metrics))
		}
		for name, unit := range c.metrics {
			if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
				t.Errorf("%s trace %s: metric %s = %+v, want unit %s", c.workload, c.trace, name, m, unit)
			}
		}
	}
}
