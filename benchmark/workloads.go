package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/monitor"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/synth"
)

// Workload shapes. They are part of the benchmark's definition: change
// one and every recorded number changes meaning.
const (
	// audit-inline-20k: open loop over a pool of inline CSV bodies. At
	// 4/s an audit is mostly done before the next is due even when the
	// host runs slowly, so latency follows service time rather than a
	// queue; a run of 25 s or more has the 100 samples p90 needs.
	inlineRows     = 20000
	inlinePool     = 8
	inlineRate     = 4 // audits per second
	inlineInflight = 2

	// audit-ref-2k: one closed-loop client by dataset_ref; every
	// repeatEvery-th request repeats its previous seed and so must hit
	// the report cache.
	refRows     = 2000
	repeatEvery = 4

	// monitor-stream: one connection, open loop, batches stamped one
	// slide apart on the stream clock; every batch closes a window and
	// is drift-scored. The audit cadence is longer than any run, and the
	// batches share the baseline's distribution, so no window is
	// audited: the workload measures the ingest path alone. Window
	// audits are the audit path the other workloads measure; with them
	// in the stream, the latency of the batches after each one moved
	// with the garbage they left, and p50 with it.
	baselineRows  = 20000
	batchRows     = 1000
	batchRate     = 10 // batches per second
	windowBatches = 20 // window_ms / slide_ms
	auditEvery    = 1 << 20
	slideMS       = 1000

	// conns caps the client's connections: the most operations any
	// workload has in flight, and nproc on the reference machine.
	conns = inlineInflight
)

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"audit-inline-20k", "audit-ref-2k", "monitor-stream"}

// inputs holds every request body a run sends, generated from the seed
// before any server starts, so that the same seed sends the same bytes.
type inputs struct {
	workload string
	seed     uint64
	// inlineCSV is the audit-inline-20k body pool.
	inlineCSV [][]byte
	// refCSV is the 2k-row dataset audited by ref.
	refCSV []byte
	// baselineCSV is the monitor's 20k-row baseline and batches its
	// ingest bodies: one per scheduled batch, and at least as many as
	// the traced replay needs.
	baselineCSV []byte
	batches     [][]byte
}

// generate builds the inputs for a run of the given workload that lasts
// total (warm-up plus measurement).
func generate(workload string, seed uint64, total time.Duration) (*inputs, error) {
	in := &inputs{workload: workload, seed: seed}
	var err error
	switch workload {
	case "audit-inline-20k":
		for k := 0; k < inlinePool && err == nil; k++ {
			var b []byte
			b, err = creditCSV(inlineRows, 1.0, subSeed(seed, 100+uint64(k)))
			in.inlineCSV = append(in.inlineCSV, b)
		}
	case "audit-ref-2k":
		in.refCSV, err = creditCSV(refRows, 1.0, subSeed(seed, 1))
	case "monitor-stream":
		in.baselineCSV, err = creditCSV(baselineRows, 0.5, subSeed(seed, 2))
		n := scheduledBatches(total)
		if n < replayOps[workload] {
			n = replayOps[workload]
		}
		for i := 0; i < n && err == nil; i++ {
			var csv []byte
			csv, err = creditCSV(batchRows, 0.5, subSeed(seed, 1000+uint64(i)))
			if err == nil {
				var body []byte
				body, err = json.Marshal(monitor.IngestWire{TimeMS: int64(i) * slideMS, CSV: string(csv)})
				in.batches = append(in.batches, body)
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	return in, err
}

// scheduledBatches is how many batches a monitor-stream run of length
// total sends.
func scheduledBatches(total time.Duration) int { return int(math.Ceil(total.Seconds() * batchRate)) }

func creditCSV(n int, bias float64, seed uint64) ([]byte, error) {
	f, err := synth.Credit(synth.CreditConfig{N: n, Bias: bias, Seed: seed})
	if err != nil {
		return nil, err
	}
	s, err := f.CSVString()
	return []byte(s), err
}

// splitmix64 is a bijective mixer: distinct inputs give distinct
// outputs, so derived seeds never collide.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed derives the generator seed of one input (tag) from the run
// seed; never 0, which the generators treat as "default".
func subSeed(seed, tag uint64) uint64 { return splitmix64(seed*1_000_003+tag) | 1 }

// requestSeed is the audit seed of request j: unique per (run seed, j),
// never 0, so no two requests share a report cache key unless the
// workload repeats one on purpose.
func requestSeed(seed uint64, j int) uint64 {
	// The base is below 2^62, so adding j cannot wrap to 0.
	return (splitmix64(seed)>>2 | 1) + uint64(j)
}

// refAuditSeed is the seed of audit-ref request j: every
// repeatEvery-th request repeats the previous one's seed.
func refAuditSeed(seed uint64, j int) uint64 {
	if j%repeatEvery == repeatEvery-1 {
		j--
	}
	return requestSeed(seed, j)
}

func refAuditBody(ref string, seed uint64) []byte {
	b, _ := json.Marshal(serve.AuditRequestWire{DatasetRef: ref, Seed: seed}) // plain struct: cannot fail
	return b
}

// setupState is what set-up leaves behind for the traffic: the dataset
// ref and the monitor id.
type setupState struct {
	ref, monitorID string
}

// setup uploads the workload's datasets and registers its monitor on a
// fresh server.
func setup(c *client, base string, in *inputs) (*setupState, error) {
	st := &setupState{}
	var err error
	switch in.workload {
	case "audit-ref-2k":
		st.ref, err = upload(c, base, "ref-2k", in.refCSV)
	case "monitor-stream":
		var ref string
		if ref, err = upload(c, base, "baseline-20k", in.baselineCSV); err != nil {
			return nil, err
		}
		body, _ := json.Marshal(monitor.SpecWire{ // plain struct: cannot fail
			Name: "bench", BaselineRef: ref,
			WindowMS: windowBatches * slideMS, SlideMS: slideMS, AuditEvery: auditEvery,
		})
		var sum monitor.Summary
		err = c.postJSON(base+"/v1/monitors", "application/json", body, &sum)
		st.monitorID = sum.ID
	}
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return st, nil
}

func upload(c *client, base, name string, csv []byte) (string, error) {
	var meta dataset.Meta
	if err := c.postJSON(base+"/v1/datasets?name="+name, "text/csv", csv, &meta); err != nil {
		return "", err
	}
	return meta.Ref, nil
}

// sample is one client operation.
type sample struct {
	// due is when an open-loop operation was scheduled, or when a
	// closed-loop one was sent; latency runs from due to end.
	due, end time.Time
	err      error
}

// traffic runs one workload's client side against a set-up server and
// collects its samples.
type traffic struct {
	c    *client
	base string
	in   *inputs
	st   *setupState
	// start is when the first operation is due; the warm-up ends at
	// warmEnd and the measurement at end.
	start, warmEnd, end time.Time

	mu      sync.Mutex
	samples []sample
	maxLate time.Duration // how late the open-loop generator sent
	checks  []error       // end-of-run checks that failed
}

func (t *traffic) record(s sample) {
	t.mu.Lock()
	t.samples = append(t.samples, s)
	t.mu.Unlock()
}

func (t *traffic) late(d time.Duration) {
	t.mu.Lock()
	if d > t.maxLate {
		t.maxLate = d
	}
	t.mu.Unlock()
}

// run drives the workload until end and returns once every operation
// has finished.
func (t *traffic) run() {
	switch t.in.workload {
	case "audit-inline-20k":
		n := int(math.Ceil(t.end.Sub(t.start).Seconds() * inlineRate))
		t.openLoop(time.Second/inlineRate, n, inlineInflight, t.inlineAudit)
	case "audit-ref-2k":
		t.closedLoop(t.refAuditer(t.st.ref))
	case "monitor-stream":
		n := scheduledBatches(t.end.Sub(t.start))
		t.openLoop(time.Second/batchRate, n, 1, t.ingest)
		t.checkMonitor(n)
	}
}

// openLoop schedules op(i) at start + i·interval for i < n with at most
// inflight outstanding, timing each from its due time.
func (t *traffic) openLoop(interval time.Duration, n, inflight int, op func(i int) error) {
	sem := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := t.start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		t.late(time.Since(due))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := op(i)
			t.record(sample{due: due, end: time.Now(), err: err})
			<-sem
		}(i)
	}
	wg.Wait()
}

// closedLoop runs op back to back until the measurement ends.
func (t *traffic) closedLoop(op func(j int) error) {
	for j := 0; time.Now().Before(t.end); j++ {
		start := time.Now()
		err := op(j)
		t.record(sample{due: start, end: time.Now(), err: err})
	}
}

// auditResponse is the part of serve.JobStatus the checks read; the
// report stays raw so repeats can be compared byte for byte.
type auditResponse struct {
	Status   serve.Status    `json:"status"`
	CacheHit bool            `json:"cache_hit"`
	Report   json.RawMessage `json:"report"`
}

// checkAudit verifies one audit response: 200, decodable, done, and
// graded GREEN, AMBER or RED.
func checkAudit(code int, body []byte, err error) (*auditResponse, error) {
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("audit: HTTP %d: %.200s", code, body)
	}
	var r auditResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("audit: decoding response: %w", err)
	}
	var rep struct {
		Overall string `json:"overall"`
	}
	if err := json.Unmarshal(r.Report, &rep); err != nil {
		return nil, fmt.Errorf("audit: decoding report: %w", err)
	}
	switch {
	case r.Status != serve.StatusDone:
		return nil, fmt.Errorf("audit: status %q", r.Status)
	case rep.Overall != "GREEN" && rep.Overall != "AMBER" && rep.Overall != "RED":
		return nil, fmt.Errorf("audit: overall grade %q", rep.Overall)
	}
	return &r, nil
}

func (t *traffic) inlineAudit(i int) error {
	url := t.base + "/v1/audit?dataset=inline-20k&seed=" + strconv.FormatUint(requestSeed(t.in.seed, i), 10)
	code, body, err := t.c.post(url, "text/csv", t.in.inlineCSV[i%len(t.in.inlineCSV)])
	_, err = checkAudit(code, body, err)
	return err
}

// refAuditer returns the audit-ref operation. A repeat must be a cache
// hit whose report is byte-identical to the miss it repeats.
func (t *traffic) refAuditer(ref string) func(j int) error {
	var prev json.RawMessage
	return func(j int) error {
		code, body, err := t.c.post(t.base+"/v1/audit", "application/json", refAuditBody(ref, refAuditSeed(t.in.seed, j)))
		r, err := checkAudit(code, body, err)
		if err != nil {
			prev = nil
			return err
		}
		if j%repeatEvery == repeatEvery-1 {
			switch {
			case !r.CacheHit:
				err = errors.New("audit: repeated request missed the report cache")
			case prev == nil || string(r.Report) != string(prev):
				err = errors.New("audit: cached report differs from the report it repeats")
			}
		}
		prev = r.Report
		return err
	}
}

func (t *traffic) ingest(i int) error {
	code, body, err := t.c.post(t.base+"/v1/monitors/"+t.st.monitorID+"/ingest", "application/json", t.in.batches[i])
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("ingest: HTTP %d: %.200s", code, body)
	}
	var sum monitor.Summary
	if err := json.Unmarshal(body, &sum); err != nil {
		return fmt.Errorf("ingest: decoding response: %w", err)
	}
	return nil
}

// checkMonitor verifies the stream's end state after n batches: every
// batch after the first window closed exactly one window, no row
// arrived late, no window breached drift (the batches are drawn from
// the baseline's distribution), and no retained window records an
// error.
func (t *traffic) checkMonitor(n int) {
	base := t.base + "/v1/monitors/" + t.st.monitorID
	var sum monitor.Summary
	if err := t.c.getJSON(base, &sum); err != nil {
		t.checks = append(t.checks, err)
		return
	}
	want := n - windowBatches
	if want < 0 {
		want = 0
	}
	if sum.Windows != uint64(want) {
		t.checks = append(t.checks, fmt.Errorf("monitor: %d windows after %d batches, want %d", sum.Windows, n, want))
	}
	if sum.LateRows != 0 {
		t.checks = append(t.checks, fmt.Errorf("monitor: %d late rows", sum.LateRows))
	}
	if sum.DriftBreaches != 0 {
		t.checks = append(t.checks, fmt.Errorf("monitor: %d drift breaches on a stream drawn from the baseline's distribution", sum.DriftBreaches))
	}
	var hist struct {
		History []monitor.WindowEntry `json:"history"`
	}
	if err := t.c.getJSON(base+"/history", &hist); err != nil {
		t.checks = append(t.checks, err)
		return
	}
	for _, e := range hist.History {
		if e.Error != "" {
			t.checks = append(t.checks, fmt.Errorf("monitor: window %d: %s", e.Window, e.Error))
		}
	}
}
