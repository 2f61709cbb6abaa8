// Command auditservice walks through the concurrent FACT audit service
// (internal/serve) end to end: it starts the HTTP API on a loopback
// port, POSTs a batch of audits — a biased and an unbiased synthetic
// credit population, plus a CSV upload — repeats one request to show the
// report cache answering from memory, loads a dataset into the
// content-addressed registry once and re-audits it by dataset_ref, and
// finishes by printing the service metrics (throughput, cache hit rate,
// latency quantiles, dataset gauges).
//
//	go run ./examples/auditservice
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/synth"
)

func main() {
	// 1. Start the service: 4 workers, a bounded queue, a report cache,
	// and a 64 MiB dataset registry.
	engine := serve.NewEngine(serve.Config{
		Workers:    4,
		QueueSize:  16,
		JobTimeout: time.Minute,
		CacheSize:  32,
	})
	defer engine.Close()
	datasets := dataset.NewRegistry(64 << 20)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	handler := serve.NewHandler(engine)
	handler.Datasets = datasets
	server := &http.Server{Handler: handler.Mount(dataset.NewHandler(datasets).Routes())}
	go func() { _ = server.Serve(ln) }()
	defer server.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("audit service listening on %s (%d workers)\n\n", base, engine.Config().Workers)

	// 2. Audit two synthetic populations: one with heavy injected bias
	// (should grade RED under the four-fifths rule) and one with fair
	// labels (should pass fairness).
	for _, req := range []string{
		`{"dataset":"biased-credit","synthetic":{"n":4000,"bias":1.0,"seed":2}}`,
		`{"dataset":"fair-credit","synthetic":{"n":4000,"bias":0.0,"seed":2}}`,
	} {
		js := post(base, req)
		fmt.Printf("%-14s -> %-5s (disparate impact %.3f, accuracy %.3f, cache hit %v)\n",
			js.Dataset, js.Report.Overall,
			js.Report.Fairness.Report.DisparateImpact,
			js.Report.Accuracy.Accuracy, js.CacheHit)
	}

	// 3. Upload a dataset as CSV, the way an external client would.
	data, err := synth.Credit(synth.CreditConfig{N: 2000, Bias: 0.5, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	csv, err := data.CSVString()
	if err != nil {
		log.Fatal(err)
	}
	upload, err := json.Marshal(map[string]any{"dataset": "uploaded-credit", "csv": csv})
	if err != nil {
		log.Fatal(err)
	}
	js := post(base, string(upload))
	fmt.Printf("%-14s -> %-5s (%d findings)\n", js.Dataset, js.Report.Overall, len(js.Report.Findings))

	// 4. The identical upload again: the engine recognizes the
	// (dataset hash, policy hash) pair and serves the report from the
	// LRU cache without re-running the pipeline.
	js = post(base, string(upload))
	fmt.Printf("%-14s -> %-5s (cache hit %v)\n\n", js.Dataset, js.Report.Overall, js.CacheHit)

	// 5. The upload-once workflow: load the dataset into the
	// content-addressed registry, get back its content hash, and audit
	// by dataset_ref — no re-upload, no re-parse, no re-hash.
	resp, err := http.Post(base+"/v1/datasets?name=resident-credit", "text/csv", strings.NewReader(csv))
	if err != nil {
		log.Fatal(err)
	}
	var meta dataset.Meta
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("\nloaded %q once: %d rows resident as ref %.12s…\n", meta.Name, meta.Rows, meta.Ref)
	for i := 0; i < 2; i++ {
		js = post(base, fmt.Sprintf(`{"dataset_ref":%q}`, meta.Ref))
		fmt.Printf("audit by ref   -> %-5s (cache hit %v)\n", js.Report.Overall, js.CacheHit)
	}

	// 6. Service metrics, including the dataset registry gauges.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		serve.Snapshot
		Datasets dataset.Snapshot `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmetrics: %d jobs completed, cache hit rate %.0f%%, p50 %.1fms, p99 %.1fms, p99 exec %.1fms\n",
		snap.JobsCompleted, 100*snap.CacheHitRate, snap.P50Millis, snap.P99Millis, snap.P99ExecMillis)
	fmt.Printf("datasets: %d resident (%d KiB of %d MiB budget), %d hits, %d misses\n",
		snap.Datasets.Resident, snap.Datasets.Bytes>>10, snap.Datasets.BudgetBytes>>20,
		snap.Datasets.Hits, snap.Datasets.Misses)
}

// post sends one synchronous audit request and decodes the job result.
func post(base, body string) serve.JobStatus {
	resp, err := http.Post(base+"/v1/audit", "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST /v1/audit: %s\n%s", resp.Status, raw)
	}
	var js serve.JobStatus
	if err := json.Unmarshal(raw, &js); err != nil {
		log.Fatal(err)
	}
	return js
}
