// Command pipeline walks through the remediation plane
// (internal/pipeline) end to end — the paper's responsible-data-science
// curriculum as one staged run: start the service on a loopback port,
// upload a synthetic credit population with heavy historical bias,
// submit the default seven-stage pipeline (train → audit → mitigate →
// re-audit → ldp-privatize → retrain → re-audit) over HTTP, poll the
// run record to completion, and narrate each stage's typed result —
// the unmitigated classifier failing the fairness audit, reweighing
// repairing disparate impact, local differential privacy noising the
// sensitive attribute for a spent epsilon, and the final model graded
// fair on the true groups while never having trained on them.
//
//	go run ./examples/pipeline
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
	"github.com/responsible-data-science/rds/internal/pipeline"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/synth"
)

func main() {
	// 1. Stand up the service the way cmd/rds-serve does: the staged-job
	// engine shared by the audit and remediation planes, the dataset
	// registry the pipeline resolves its ref against.
	engine := serve.NewEngine(serve.Config{Workers: 4, QueueSize: 16, JobTimeout: time.Minute})
	defer engine.Close()
	datasets := dataset.NewRegistry(0)
	runs := pipeline.NewRegistry(engine, datasets, nil)

	handler := serve.NewHandler(engine)
	handler.Datasets = datasets

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	server := &http.Server{Handler: handler.Mount(dataset.NewHandler(datasets).Routes(), pipeline.NewHandler(runs).Routes())}
	go func() { _ = server.Serve(ln) }()
	defer server.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("remediation service listening on %s (%d workers)\n\n", base, engine.Config().Workers)

	// 2. A credit population whose historical labels are biased against
	// group B — the dataset the curriculum has to fix.
	biased, err := synth.Credit(synth.CreditConfig{N: 4000, Bias: 0.5, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	csv, err := biased.CSVString()
	if err != nil {
		log.Fatal(err)
	}
	var ds struct {
		Ref string `json:"ref"`
	}
	postBody(base+"/v1/datasets", "text/csv", csv, &ds)
	fmt.Printf("uploaded 4000 biased credit applications as %s\n\n", ds.Ref[:12])

	// 3. Submit the default seven-stage curriculum. The response is the
	// initial record: pipelines are async, minutes of work behind a 202.
	var rec pipeline.Record
	postBody(base+"/v1/pipelines", "application/json",
		fmt.Sprintf(`{"dataset_ref":"%s","epochs":40,"seed":11,"epsilon":3}`, ds.Ref), &rec)
	fmt.Printf("submitted %s: %s\n", rec.ID, strings.Join(rec.Spec.Stages, " → "))

	// 4. Poll the record until the run is terminal, narrating stages as
	// they land.
	seen := 0
	for rec.Status != serve.StatusDone && rec.Status != serve.StatusFailed {
		time.Sleep(20 * time.Millisecond)
		getJSON(base+"/v1/pipelines/"+rec.ID, &rec)
		for ; seen < len(rec.Stages); seen++ {
			s := rec.Stages[seen]
			fmt.Printf("  stage %d %-13s %-6s %6.1fms  %s\n",
				s.Index, s.Stage, s.Status, s.ElapsedMillis, describe(s))
		}
	}
	if rec.Status != serve.StatusDone {
		log.Fatalf("run failed: %s", rec.Error)
	}

	// 5. The curriculum's arc in three audits: the raw classifier, the
	// mitigated one, and the private+fair one graded on true groups.
	initial, mitigated, private := audit(rec, 1), audit(rec, 3), audit(rec, 6)
	fmt.Printf("\ncurriculum outcome for %s (%.1fms end to end):\n", rec.ID, rec.ElapsedMillis)
	fmt.Printf("  classifier:     %-5s disparate impact %.2f — trained on biased labels, fails the audit\n",
		initial.Overall, initial.DisparateImpact)
	fmt.Printf("  + fairness:     %-5s disparate impact %.2f — reweighed training repaired the ratio\n",
		mitigated.Overall, mitigated.DisparateImpact)
	fmt.Printf("  + privacy:      %-5s disparate impact %.2f — audited on true groups, ε spent %.1f\n",
		private.Overall, private.DisparateImpact, private.EpsSpent)
	fmt.Printf("\nthe final model trained without the real sensitive attribute (true_groups=%v):\n", private.TrueGroups)
	fmt.Printf("privacy noise weakens reweighing, costing %.2f disparate impact vs the non-private\n", mitigated.DisparateImpact-private.DisparateImpact)
	fmt.Println("model — the fairness/privacy tension the curriculum is built to surface")
}

// describe renders one stage record's typed detail as a narration line.
func describe(s pipeline.StageRecord) string {
	switch s.Stage {
	case "train", "retrain":
		var d pipeline.TrainDetail
		decodeDetail(s, &d)
		return fmt.Sprintf("accuracy %.3f, AUC %.3f (mitigation %s, privatized %v)",
			d.Accuracy, d.AUC, d.Mitigation, d.Privatized)
	case "audit", "re-audit":
		var d pipeline.AuditDetail
		decodeDetail(s, &d)
		return fmt.Sprintf("grade %s, disparate impact %.2f", d.Overall, d.DisparateImpact)
	case "mitigate":
		var d pipeline.MitigateDetail
		decodeDetail(s, &d)
		return fmt.Sprintf("%s: accuracy %+.3f, AUC %+.3f vs unmitigated",
			d.Mitigation, d.AccuracyDelta, d.AUCDelta)
	case "ldp-privatize":
		var d pipeline.PrivatizeDetail
		decodeDetail(s, &d)
		return fmt.Sprintf("randomized response on %q: keep p=%.3f, %.1f%% flipped, ε spent %.1f",
			d.Column, d.KeepProbability, 100*d.FlippedFraction, d.EpsSpent)
	}
	return ""
}

// audit decodes the AuditDetail at stage index i.
func audit(rec pipeline.Record, i int) pipeline.AuditDetail {
	var d pipeline.AuditDetail
	decodeDetail(rec.Stages[i], &d)
	return d
}

func decodeDetail(s pipeline.StageRecord, out any) {
	if err := json.Unmarshal(s.Detail, out); err != nil {
		log.Fatalf("stage %d detail: %v", s.Index, err)
	}
}

func postBody(url, contentType, body string, out any) {
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	decode(resp, out)
}

func getJSON(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	decode(resp, out)
}

func decode(resp *http.Response, out any) {
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		log.Fatalf("%s: %s", resp.Status, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		log.Fatalf("decoding response: %v\n%s", err, raw)
	}
}
