// Command continuousaudit walks through the monitoring plane
// (internal/monitor) end to end: it starts the two-plane service on a
// loopback port with a local webhook receiver, registers a monitor over
// a credit stream, replays two minutes of traffic — a fair baseline
// minute, then a drifted minute where the protected-group share doubles
// and heavy label bias appears — and shows the drift breach forcing an
// off-cadence re-audit, the Green→Red grade-regression alert arriving
// at the webhook, the full window history, and the monitoring gauges in
// /metrics.
//
//	go run ./examples/continuousaudit
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

	"github.com/responsible-data-science/rds/internal/monitor"
	"github.com/responsible-data-science/rds/internal/serve"
)

func main() {
	// 1. Stand up the two-plane service the way cmd/rds-serve does:
	// one engine shared by the request/response and monitoring planes.
	engine := serve.NewEngine(serve.Config{Workers: 4, QueueSize: 16, JobTimeout: time.Minute})
	defer engine.Close()
	registry, err := monitor.NewRegistry(monitor.RegistryConfig{Engine: engine})
	if err != nil {
		log.Fatal(err)
	}
	defer registry.Close()

	handler := serve.NewHandler(engine)
	handler.MonitorMetrics = func() any { return registry.Metrics() }

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	server := &http.Server{Handler: handler.Mount(monitor.NewHandler(registry).Routes())}
	go func() { _ = server.Serve(ln) }()
	defer server.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("two-plane audit service listening on %s (%d workers)\n\n", base, engine.Config().Workers)

	// 2. A webhook receiver standing in for the on-call channel.
	alerts := make(chan monitor.Alert, 16)
	whLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	webhook := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var a monitor.Alert
		if err := json.NewDecoder(r.Body).Decode(&a); err == nil {
			alerts <- a
		}
		w.WriteHeader(http.StatusNoContent)
	})}
	go func() { _ = webhook.Serve(whLn) }()
	defer webhook.Close()

	// 3. Register a monitor: one-minute tumbling windows, drift-only
	// re-audits (audit_every is high), alerts to the webhook.
	var sum monitor.Summary
	postJSON(base+"/v1/monitors", fmt.Sprintf(
		`{"name":"credit-live","window_ms":60000,"audit_every":1000,"webhook":"http://%s"}`,
		whLn.Addr().String()), &sum)
	fmt.Printf("registered %s (%s): 60s tumbling windows, drift-triggered re-audits\n\n", sum.ID, sum.Name)
	mon := base + "/v1/monitors/" + sum.ID

	// 4. Minute 0 — the fair population the pipeline was approved on.
	postJSON(mon+"/ingest", `{"time_ms":0,"synthetic":{"n":2000,"bias":0}}`, &sum)
	fmt.Println("minute 0: ingested 2000 fair applications (window still open)")

	// 5. Minute 1 — the input distribution drifts: the protected-group
	// share doubles and historical labels turn heavily biased. This
	// arrival closes the baseline window; the flush closes the drifted
	// one.
	postJSON(mon+"/ingest",
		`{"time_ms":60000,"synthetic":{"n":2000,"bias":3,"group_b_fraction":0.7,"seed":2},"flush":true}`, &sum)
	fmt.Println("minute 1: ingested 2000 drifted applications and flushed")
	fmt.Printf("\nmonitor status: baseline %s, latest %s, %d audits, %d drift breach(es), %d regression(s)\n",
		*sum.BaselineGrade, *sum.LastGrade, sum.Audits, sum.DriftBreaches, sum.Regressions)

	// 6. The alerts that reached the webhook, in order.
	fmt.Println("\nwebhook alerts:")
	for i := 0; i < 2; i++ {
		select {
		case a := <-alerts:
			fmt.Printf("  [%s] window %d: %s\n", a.Kind, a.Window, a.Message)
		case <-time.After(5 * time.Second):
			log.Fatal("expected alert never arrived")
		}
	}

	// 7. The full window history: grades, drift scores, what triggered
	// each audit.
	var hist struct {
		History []monitor.WindowEntry `json:"history"`
	}
	getJSON(mon+"/history", &hist)
	fmt.Println("\nwindow history:")
	for _, e := range hist.History {
		grade := "-"
		if e.Grade != nil {
			grade = e.Grade.String()
		}
		role := "cadence"
		switch {
		case e.Baseline:
			role = "baseline"
		case e.Drift != nil && e.Drift.Breached:
			role = "drift-forced"
		}
		drift := "-"
		if e.Drift != nil {
			drift = fmt.Sprintf("max PSI %.3f, max KS %.3f", e.Drift.MaxPSI, e.Drift.MaxKS)
		}
		fmt.Printf("  window %d [%6d..%6d ms] rows=%d grade=%-5s audited=%-5v (%s; drift %s)\n",
			e.Window, e.StartMS, e.EndMS, e.Rows, grade, e.Audited, role, drift)
	}

	// 8. The monitoring gauges /metrics now carries.
	var metrics struct {
		Monitor monitor.MetricsSnapshot `json:"monitor"`
	}
	getJSON(base+"/metrics", &metrics)
	m := metrics.Monitor
	fmt.Printf("\n/metrics monitor gauges: %d active, %d windows, %d audited, %d drift breaches, %d regressions, %d alerts delivered\n",
		m.MonitorsActive, m.WindowsMaterialized, m.WindowsAudited, m.DriftBreaches, m.GradeRegressions, m.AlertsDelivered)
}

func postJSON(url, body string, out any) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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
