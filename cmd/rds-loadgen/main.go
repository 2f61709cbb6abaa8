// Command rds-loadgen drives a live rds-serve with closed-loop
// concurrent audit clients, sweeping audit size × monitor ingest rate,
// and reports the sustained audits/s and latency percentiles each cell
// achieved — the numbers docs/OPERATIONS.md publishes and the CI soak
// job asserts on. Closed-loop means each client submits its next audit
// only after the previous one returns, so the reported throughput is
// what the service actually sustains under that concurrency, not an
// open-loop arrival rate it silently sheds.
//
// Every audit request generates a fresh synthetic credit population
// with a unique seed, so no request hits the report cache: each one
// pays the full pipeline (ingest, train, fairness, intervals, grade).
// When an ingest rate is set, a standing monitor is registered per
// cell and one ingestor feeds it synthetic windows at that many rows/s
// on the stream clock, so audit latency is measured while the
// monitoring plane is busy — the production mix.
//
// Usage:
//
//	rds-loadgen [-url http://127.0.0.1:8080] [-duration 10s]
//	            [-clients 4] [-audit-rows 2000,20000]
//	            [-ingest-rate 0,1000] [-epochs 20] [-seed 1]
//	            [-json out.json] [-max-p99 0]
//	            [-tenants 1] [-max-tenant-p99-spread 0]
//	            [-pipelines 0]
//
// With -tenants N > 1, the closed-loop clients split round-robin
// across N tenant identities (X-RDS-Tenant: t0..tN-1) and the cell
// reports per-tenant audit counts and latency percentiles plus the
// p99 spread (slowest tenant p99 over fastest) — the fairness figure
// the multi-tenant soak asserts on. After a multi-tenant sweep the
// service's own /metrics tenant slices are asserted too: every
// loadgen tenant must carry server-computed p50_millis/p99_millis
// gauges, so the soak fails if those fields ever regress to
// client-side-only computation.
//
// With -pipelines N > 0, each cell also runs N closed-loop pipeline
// clients: a synthetic biased dataset is uploaded once, and each
// client submits the default seven-stage remediation curriculum
// (train → audit → mitigate → re-audit → ldp-privatize → retrain →
// re-audit) against it with a unique seed, polling the run record to
// completion — the remediation plane measured alongside audit and
// ingest load, not in isolation.
//
// Soak assertions: the process exits non-zero when any request
// returned a 5xx, when any pipeline run fails, when -max-p99 is set
// and any cell's audit p99 exceeds it, when -max-tenant-p99-spread
// is set and any cell's tenant p99 spread exceeds it, or when a
// multi-tenant sweep finds a loadgen tenant without server-side
// latency quantiles in /metrics. CI runs a 60s sweep with the
// assertions on.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/responsible-data-science/rds/internal/synth"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main behind a testable seam: it parses args with its own
// FlagSet, executes the sweep, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rds-loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	url := fs.String("url", "http://127.0.0.1:8080", "base URL of the rds-serve instance")
	duration := fs.Duration("duration", 10*time.Second, "wall-clock length of each sweep cell")
	clients := fs.Int("clients", 4, "concurrent closed-loop audit clients per cell")
	auditRows := fs.String("audit-rows", "2000,20000", "comma-separated synthetic audit sizes to sweep")
	ingestRate := fs.String("ingest-rate", "0", "comma-separated monitor ingest rates (rows/s) to sweep; 0 disables the monitor arm")
	epochs := fs.Int("epochs", 20, "cap on the logistic fit's Newton iterations per audit")
	seed := fs.Uint64("seed", 1, "base seed; every request derives a unique seed so the report cache never hits")
	jsonOut := fs.String("json", "", "write the machine-readable sweep results to this path")
	maxP99 := fs.Duration("max-p99", 0, "fail (exit 1) when any cell's audit p99 exceeds this; 0 disables")
	tenants := fs.Int("tenants", 1, "spread the closed-loop clients across this many tenant identities (X-RDS-Tenant: t0..tN-1)")
	maxSpread := fs.Float64("max-tenant-p99-spread", 0, "fail (exit 1) when any cell's slowest-tenant p99 exceeds its fastest-tenant p99 by more than this factor; 0 disables")
	pipelines := fs.Int("pipelines", 0, "closed-loop clients per cell submitting the default remediation curriculum to /v1/pipelines; 0 disables the pipeline arm")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "rds-loadgen: "+format+"\n", args...)
		return 1
	}
	rows, err := parseIntList(*auditRows)
	if err != nil {
		return fail("bad -audit-rows: %v", err)
	}
	rates, err := parseIntList(*ingestRate)
	if err != nil {
		return fail("bad -ingest-rate: %v", err)
	}
	if *clients < 1 || *duration <= 0 {
		return fail("-clients and -duration must be positive")
	}
	if *tenants < 1 {
		return fail("-tenants must be positive")
	}
	if *pipelines < 0 {
		return fail("-pipelines must be non-negative")
	}
	if err := waitHealthy(*url, healthBudget); err != nil {
		return fail("%v", err)
	}

	// The pipeline arm audits a fixed biased dataset by ref (uploaded
	// once), so every run exercises the full mitigation curriculum.
	pipelineRef := ""
	if *pipelines > 0 {
		ref, err := uploadPipelineDataset(*url, *seed)
		if err != nil {
			return fail("uploading pipeline dataset: %v", err)
		}
		pipelineRef = ref
	}

	doc := sweepDoc{URL: *url, DurationS: duration.Seconds(), Clients: *clients}
	seq := *seed
	for _, r := range rows {
		for _, rate := range rates {
			cell, err := runCell(cellConfig{
				url: *url, duration: *duration, clients: *clients,
				auditRows: r, ingestRate: rate, epochs: *epochs, seedBase: &seq,
				tenants: *tenants, pipelines: *pipelines, pipelineRef: pipelineRef,
			})
			if err != nil {
				return fail("cell rows=%d rate=%d: %v", r, rate, err)
			}
			doc.Cells = append(doc.Cells, cell)
			fmt.Fprintf(stdout, "audit_rows=%-6d clients=%d ingest_rate=%-6d  %7.2f audits/s  p50=%s p99=%s  2xx=%d 4xx=%d 5xx=%d ingest_5xx=%d\n",
				cell.AuditRows, *clients, cell.IngestRate, cell.AuditsPerS,
				msString(cell.P50MS), msString(cell.P99MS),
				cell.Status2xx, cell.Status4xx, cell.Status5xx, cell.Ingest5xx)
			if *tenants > 1 {
				fmt.Fprintf(stdout, "  tenant p99 spread %.2fx across %d tenants\n", cell.TenantP99Spread, len(cell.Tenants))
			}
			if *pipelines > 0 {
				fmt.Fprintf(stdout, "  pipelines done=%d failed=%d p50=%s p99=%s\n",
					cell.Pipelines, cell.PipelinesFailed,
					msString(cell.PipelineP50MS), msString(cell.PipelineP99MS))
			}
		}
	}

	best := 0.0
	for _, c := range doc.Cells {
		if c.AuditsPerS > best {
			best = c.AuditsPerS
		}
	}
	doc.MaxSustainedAuditsPerS = best
	fmt.Fprintf(stdout, "max sustained: %.2f audits/s\n", best)

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return fail("%v", err)
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			return fail("%v", err)
		}
	}

	failed := false
	for _, c := range doc.Cells {
		if c.Status5xx > 0 || c.Ingest5xx > 0 {
			fmt.Fprintf(stderr, "rds-loadgen: cell rows=%d rate=%d saw %d audit 5xx, %d ingest 5xx\n",
				c.AuditRows, c.IngestRate, c.Status5xx, c.Ingest5xx)
			failed = true
		}
		if *maxP99 > 0 && c.Audits > 0 && time.Duration(c.P99MS*float64(time.Millisecond)) > *maxP99 {
			fmt.Fprintf(stderr, "rds-loadgen: cell rows=%d rate=%d p99 %.1fms over the %s budget\n",
				c.AuditRows, c.IngestRate, c.P99MS, *maxP99)
			failed = true
		}
		if *maxSpread > 0 && c.TenantP99Spread > *maxSpread {
			fmt.Fprintf(stderr, "rds-loadgen: cell rows=%d rate=%d tenant p99 spread %.2fx over the %.2fx budget\n",
				c.AuditRows, c.IngestRate, c.TenantP99Spread, *maxSpread)
			failed = true
		}
		if c.Audits == 0 {
			fmt.Fprintf(stderr, "rds-loadgen: cell rows=%d rate=%d completed no audits\n", c.AuditRows, c.IngestRate)
			failed = true
		}
		if *pipelines > 0 && (c.PipelinesFailed > 0 || c.Pipelines == 0) {
			fmt.Fprintf(stderr, "rds-loadgen: cell rows=%d rate=%d pipelines done=%d failed=%d, want >= 1 done and 0 failed\n",
				c.AuditRows, c.IngestRate, c.Pipelines, c.PipelinesFailed)
			failed = true
		}
	}
	// The server now computes per-tenant latency quantiles itself; a
	// multi-tenant soak asserts the /metrics tenant slices carry them so
	// the gauges cannot silently regress to client-side-only numbers.
	if *tenants > 1 {
		if err := checkTenantMetrics(*url, *tenants); err != nil {
			fmt.Fprintf(stderr, "rds-loadgen: %v\n", err)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

// checkTenantMetrics fetches /metrics and verifies every loadgen
// tenant identity (t0..tN-1) has a slice with server-computed latency
// quantiles: a populated sample window with p50_millis > 0 and
// p99_millis >= p50_millis.
func checkTenantMetrics(url string, tenants int) error {
	hc := &http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get(url + "/metrics")
	if err != nil {
		return fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	var snap struct {
		Tenants map[string]struct {
			P50Millis      float64 `json:"p50_millis"`
			P99Millis      float64 `json:"p99_millis"`
			LatencySamples int     `json:"latency_samples"`
		} `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("decoding /metrics: %w", err)
	}
	for i := 0; i < tenants; i++ {
		ten := fmt.Sprintf("t%d", i)
		ts, ok := snap.Tenants[ten]
		if !ok {
			return fmt.Errorf("/metrics has no tenant slice for %s", ten)
		}
		if ts.LatencySamples <= 0 || ts.P50Millis <= 0 || ts.P99Millis < ts.P50Millis {
			return fmt.Errorf("/metrics tenant %s quantiles = p50 %.2fms p99 %.2fms over %d samples, want a populated window with p99 >= p50 > 0",
				ten, ts.P50Millis, ts.P99Millis, ts.LatencySamples)
		}
	}
	return nil
}

// sweepDoc is the machine-readable result the -json flag writes.
type sweepDoc struct {
	URL                    string       `json:"url"`
	DurationS              float64      `json:"duration_s"`
	Clients                int          `json:"clients"`
	Cells                  []cellResult `json:"cells"`
	MaxSustainedAuditsPerS float64      `json:"max_sustained_audits_per_s"`
}

// cellResult is one sweep cell's outcome.
type cellResult struct {
	AuditRows  int     `json:"audit_rows"`
	IngestRate int     `json:"ingest_rate"`
	Audits     int64   `json:"audits"`
	AuditsPerS float64 `json:"audits_per_s"`
	P50MS      float64 `json:"p50_ms"`
	P99MS      float64 `json:"p99_ms"`
	Status2xx  int64   `json:"status_2xx"`
	Status4xx  int64   `json:"status_4xx"`
	Status5xx  int64   `json:"status_5xx"`
	IngestReqs int64   `json:"ingest_reqs"`
	Ingest5xx  int64   `json:"ingest_5xx"`
	// Tenants holds per-tenant latency stats when -tenants > 1;
	// TenantP99Spread is the slowest tenant's p99 over the fastest's
	// (1.0 = perfectly even, 0 when fewer than two tenants completed
	// audits).
	Tenants         map[string]tenantStats `json:"tenants,omitempty"`
	TenantP99Spread float64                `json:"tenant_p99_spread,omitempty"`
	// Pipelines counts remediation curricula the pipeline arm completed
	// (status done), PipelinesFailed the runs that finished failed or
	// whose submission errored; the quantiles are end-to-end wall time
	// from POST to terminal record.
	Pipelines       int64   `json:"pipelines,omitempty"`
	PipelinesFailed int64   `json:"pipelines_failed,omitempty"`
	PipelineP50MS   float64 `json:"pipeline_p50_ms,omitempty"`
	PipelineP99MS   float64 `json:"pipeline_p99_ms,omitempty"`
}

// tenantStats is one tenant identity's slice of a cell result.
type tenantStats struct {
	Audits int64   `json:"audits"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// cellConfig parameterizes one sweep cell.
type cellConfig struct {
	url        string
	duration   time.Duration
	clients    int
	auditRows  int
	ingestRate int
	epochs     int
	seedBase   *uint64
	tenants    int
	// pipelines is the number of closed-loop pipeline clients; they
	// submit the default curriculum against pipelineRef.
	pipelines   int
	pipelineRef string
}

// runCell runs one (audit size, ingest rate) cell: clients closed-loop
// audit posters for the configured duration, plus one monitor ingestor
// when the rate is non-zero.
func runCell(cfg cellConfig) (cellResult, error) {
	res := cellResult{AuditRows: cfg.auditRows, IngestRate: cfg.ingestRate}
	hc := &http.Client{Timeout: 5 * time.Minute}

	stopIngest, err := startIngestor(hc, cfg, &res)
	if err != nil {
		return res, err
	}
	defer stopIngest()

	var (
		mu         sync.Mutex
		latencies  []float64
		perTenant  = map[string][]float64{}
		c2, c4, c5 int64
		pipeLat    []float64
	)
	deadline := time.Now().Add(cfg.duration)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.pipelines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s := atomic.AddUint64(cfg.seedBase, 1)
				ms, ok, err := runOnePipeline(hc, cfg, s, deadline)
				if err != nil {
					atomic.AddInt64(&res.PipelinesFailed, 1)
					continue
				}
				if !ok {
					// Still running at the deadline — abandoned, not failed.
					return
				}
				atomic.AddInt64(&res.Pipelines, 1)
				mu.Lock()
				pipeLat = append(pipeLat, ms)
				mu.Unlock()
			}
		}()
	}
	for w := 0; w < cfg.clients; w++ {
		wg.Add(1)
		ten := ""
		if cfg.tenants > 1 {
			ten = fmt.Sprintf("t%d", w%cfg.tenants)
		}
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s := atomic.AddUint64(cfg.seedBase, 1)
				body, _ := json.Marshal(map[string]any{
					"dataset":   "loadgen",
					"synthetic": map[string]any{"n": cfg.auditRows, "seed": s},
					"epochs":    cfg.epochs,
					"seed":      s,
				})
				t0 := time.Now()
				status := post(hc, cfg.url+"/v1/audit", body, ten)
				dt := time.Since(t0)
				mu.Lock()
				switch {
				case status >= 200 && status < 300:
					c2++
					ms := float64(dt) / float64(time.Millisecond)
					latencies = append(latencies, ms)
					if ten != "" {
						perTenant[ten] = append(perTenant[ten], ms)
					}
				case status >= 500 || status < 0:
					c5++
				default:
					c4++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	res.Audits = c2
	res.Status2xx, res.Status4xx, res.Status5xx = c2, c4, c5
	if elapsed > 0 {
		res.AuditsPerS = float64(c2) / elapsed
	}
	res.P50MS = percentile(latencies, 0.50)
	res.P99MS = percentile(latencies, 0.99)
	res.PipelineP50MS = percentile(pipeLat, 0.50)
	res.PipelineP99MS = percentile(pipeLat, 0.99)
	if len(perTenant) > 0 {
		res.Tenants = map[string]tenantStats{}
		minP99, maxP99 := 0.0, 0.0
		for ten, ms := range perTenant {
			p99 := percentile(ms, 0.99)
			res.Tenants[ten] = tenantStats{
				Audits: int64(len(ms)),
				P50MS:  percentile(ms, 0.50),
				P99MS:  p99,
			}
			if minP99 == 0 || p99 < minP99 {
				minP99 = p99
			}
			if p99 > maxP99 {
				maxP99 = p99
			}
		}
		if len(perTenant) > 1 && minP99 > 0 {
			res.TenantP99Spread = maxP99 / minP99
		}
	}
	return res, nil
}

// uploadPipelineDataset generates the biased synthetic credit
// population the pipeline arm mitigates and uploads it once, returning
// its registry ref. Bias 1.0 makes the unmitigated audit fail the
// fairness policy, so every curriculum run does real mitigation work
// rather than rubber-stamping already-fair data.
func uploadPipelineDataset(url string, seed uint64) (string, error) {
	data, err := synth.Credit(synth.CreditConfig{N: 2000, Bias: 1.0, Seed: seed})
	if err != nil {
		return "", err
	}
	csv, err := data.CSVString()
	if err != nil {
		return "", err
	}
	hc := &http.Client{Timeout: time.Minute}
	resp, err := hc.Post(url+"/v1/datasets", "text/csv", strings.NewReader(csv))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		return "", fmt.Errorf("POST /v1/datasets: %s: %s", resp.Status, raw)
	}
	var ds struct {
		Ref string `json:"ref"`
	}
	if err := json.Unmarshal(raw, &ds); err != nil || ds.Ref == "" {
		return "", fmt.Errorf("bad dataset response %q", raw)
	}
	return ds.Ref, nil
}

// runOnePipeline submits one default-curriculum run against the
// uploaded dataset and polls its record to a terminal status. It
// returns the end-to-end wall time in milliseconds with ok=true when
// the run finished done, ok=false when the cell deadline passed while
// the run was still in flight (abandoned, not failed), and an error
// when submission was rejected or the run finished failed.
func runOnePipeline(hc *http.Client, cfg cellConfig, seed uint64, deadline time.Time) (float64, bool, error) {
	body, _ := json.Marshal(map[string]any{
		"dataset_ref": cfg.pipelineRef,
		"epochs":      cfg.epochs,
		"seed":        seed,
	})
	t0 := time.Now()
	resp, err := hc.Post(cfg.url+"/v1/pipelines", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, false, err
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return 0, false, fmt.Errorf("submit pipeline: %s: %s", resp.Status, raw)
	}
	var rec struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil || rec.ID == "" {
		return 0, false, fmt.Errorf("bad pipeline response %q", raw)
	}
	for {
		switch rec.Status {
		case "done":
			return float64(time.Since(t0)) / float64(time.Millisecond), true, nil
		case "failed":
			return 0, false, fmt.Errorf("pipeline %s failed: %s", rec.ID, rec.Error)
		}
		if time.Now().After(deadline) {
			return 0, false, nil
		}
		time.Sleep(10 * time.Millisecond)
		resp, err := hc.Get(cfg.url + "/v1/pipelines/" + rec.ID)
		if err != nil {
			return 0, false, err
		}
		err = json.NewDecoder(resp.Body).Decode(&rec)
		resp.Body.Close()
		if err != nil {
			return 0, false, fmt.Errorf("polling pipeline %s: %w", rec.ID, err)
		}
	}
}

// startIngestor registers a fresh monitor and feeds it synthetic rows
// at the cell's ingest rate (rows per wall-clock second) until the
// returned stop function runs, which also deletes the monitor. A zero
// rate is a no-op.
func startIngestor(hc *http.Client, cfg cellConfig, res *cellResult) (func(), error) {
	if cfg.ingestRate <= 0 {
		return func() {}, nil
	}
	name := fmt.Sprintf("loadgen-%d-%d-%d", cfg.auditRows, cfg.ingestRate, time.Now().UnixNano())
	body, _ := json.Marshal(map[string]any{
		"name":      name,
		"window_ms": 1000,
		"epochs":    cfg.epochs,
		// Baseline audit aside, keep the monitor on drift scoring only:
		// the audit clients are the measured load.
		"audit_every": 1 << 20,
	})
	req, err := http.NewRequest(http.MethodPost, cfg.url+"/v1/monitors", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("register monitor: %w", err)
	}
	var reg struct {
		ID string `json:"id"`
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		return nil, fmt.Errorf("register monitor: %s: %s", resp.Status, raw)
	}
	if err := json.Unmarshal(raw, &reg); err != nil || reg.ID == "" {
		return nil, fmt.Errorf("register monitor: bad response %q", raw)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// One batch per second of stream time, sized to the rate, paced
		// to wall-clock so rows/s holds.
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		t := int64(0)
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			s := atomic.AddUint64(cfg.seedBase, 1)
			body, _ := json.Marshal(map[string]any{
				"time_ms":   t,
				"synthetic": map[string]any{"n": cfg.ingestRate, "seed": s},
			})
			status := post(hc, cfg.url+"/v1/monitors/"+reg.ID+"/ingest", body, "")
			atomic.AddInt64(&res.IngestReqs, 1)
			if status >= 500 || status < 0 {
				atomic.AddInt64(&res.Ingest5xx, 1)
			}
			t += 1000
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		del, err := http.NewRequest(http.MethodDelete, cfg.url+"/v1/monitors/"+reg.ID, nil)
		if err == nil {
			if resp, err := hc.Do(del); err == nil {
				resp.Body.Close()
			}
		}
	}, nil
}

// post sends a JSON body (as tenant ten when non-empty) and returns
// the status code, or -1 on transport error.
func post(hc *http.Client, url string, body []byte, ten string) int {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return -1
	}
	req.Header.Set("Content-Type", "application/json")
	if ten != "" {
		req.Header.Set("X-RDS-Tenant", ten)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return -1
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// waitHealthy polls /healthz until the service answers 200 or the
// budget runs out, so the CI job can start rds-serve and run the
// loadgen immediately.
func waitHealthy(url string, budget time.Duration) error {
	hc := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(healthPollInterval)
	}
	return fmt.Errorf("service at %s not healthy within %s", url, budget)
}

// percentile returns the q-quantile of the samples in milliseconds
// (nearest-rank over the sorted sample; 0 when empty).
func percentile(ms []float64, q float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	sort.Float64s(ms)
	idx := int(q*float64(len(ms)-1) + 0.5)
	return ms[idx]
}

// msString renders a millisecond figure compactly for the table.
func msString(ms float64) string {
	if ms >= 1000 {
		return fmt.Sprintf("%.2fs", ms/1000)
	}
	return fmt.Sprintf("%.0fms", ms)
}

// waitHealthy's poll interval and run's startup budget are variables
// so tests can shrink them.
var (
	healthPollInterval = 250 * time.Millisecond
	healthBudget       = 30 * time.Second
)

// parseIntList parses a comma-separated list of non-negative ints.
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
