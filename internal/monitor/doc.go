// Package monitor turns the request/response audit service of
// internal/serve into standing surveillance of live pipelines — the
// paper's "green data science" gauge run continuously rather than on
// demand.
//
// A Registry holds named monitors. Each monitor couples a FACT policy
// and training spec with a windowed stream auditor: stream.Arrival
// batches flow through tumbling or sliding windows, and on the
// configured audit cadence a closed window is materialized back into a
// frame.Frame and submitted to the shared serve.Engine for a full FACT
// audit. The first audited window is pinned as the baseline; every
// later window is compared against it with population-stability-index
// (PSI) and two-sample Kolmogorov-Smirnov drift statistics per column,
// scored by a ChunkScorer from the window's per-chunk states. Drift
// past the policy thresholds triggers an immediate off-cadence
// re-audit, and a per-monitor schedule re-audits the latest window even
// when no new data arrives. Grade regressions (Green→Amber→Red) and
// drift breaches fire Alerts into pluggable Sinks — a log sink and a
// webhook sink with retry/backoff ship in-package.
//
// Handler exposes the registry over HTTP (POST/GET/DELETE /v1/monitors,
// GET /v1/monitors/{id}/history, POST /v1/monitors/{id}/ingest);
// cmd/rds-serve mounts it next to the one-shot audit API, and
// examples/continuousaudit is a runnable walkthrough.
package monitor
