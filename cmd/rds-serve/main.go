// Command rds-serve runs the concurrent FACT audit service: a worker
// pool of pipeline audits behind an HTTP API, with an LRU report cache,
// service metrics, and a continuous-monitoring plane. It is the
// always-on "green data science" gauge — clients POST datasets and
// policies for one-shot Green/Amber/Red reports, or register standing
// monitors that window a live stream, audit every window, detect
// PSI/KS drift against a pinned baseline, and alert on grade
// regressions.
//
// Usage:
//
//	rds-serve [-addr :8080] [-workers N] [-queue 64]
//	          [-timeout 60s] [-cache 128] [-allow-paths]
//	          [-dataset-budget-bytes 268435456]
//	          [-chunk-cache-bytes 67108864]
//	          [-state-dir DIR]
//	          [-tenant-rate 0] [-tenant-burst 0] [-tenant-max-queue 0]
//
// With -state-dir, registered monitors, pinned baseline profiles,
// registry-resident datasets, and tenant quota overrides persist to
// crash-safe JSON under DIR and are restored on the next boot (see
// OPERATIONS.md "Durability"). Without it, all state is in-memory and
// dies with the process.
//
// Every request may carry a tenant id (X-RDS-Tenant header or a
// "tenant" body/query field; absent means the "default" tenant).
// Tenants get isolated queues drained weighted-fairly, token-bucket
// admission (-tenant-rate/-tenant-burst service defaults; per-tenant
// overrides via PUT /v1/tenants/{id}), resource quotas, and their own
// responsibility report (see OPERATIONS.md "Multi-tenancy").
//
// Endpoints:
//
//	POST   /v1/audit                  audit a dataset (JSON, text/csv, or multipart)
//	GET    /v1/audit/{id}             async job status / result
//	POST   /v1/datasets               load a dataset once -> content-hash dataset_ref
//	GET    /v1/datasets               list resident datasets
//	GET    /v1/datasets/{ref}         dataset metadata
//	DELETE /v1/datasets/{ref}         evict a dataset (409 while pinned)
//	POST   /v1/pipelines              submit a staged train/audit/mitigate run
//	GET    /v1/pipelines              list staged runs
//	GET    /v1/pipelines/{id}         staged run status + per-stage results
//	POST   /v1/monitors               register a continuous monitor
//	GET    /v1/monitors               list monitors
//	GET    /v1/monitors/{id}          monitor status
//	DELETE /v1/monitors/{id}          stop and remove a monitor
//	GET    /v1/monitors/{id}/history  per-window reports and drift scores
//	POST   /v1/monitors/{id}/ingest   feed rows onto the monitor's stream clock
//	GET    /v1/tenants                tenant quota defaults + overrides
//	GET    /v1/tenants/{id}           one tenant's effective quotas
//	PUT    /v1/tenants/{id}           install a quota override
//	DELETE /v1/tenants/{id}           remove a quota override
//	GET    /v1/tenants/{id}/report    per-tenant responsibility report
//	GET    /healthz                   liveness and pool state
//	GET    /metrics                   engine counters + monitoring + dataset gauges
//
// The endpoints form one route table (internal/httpx). Paths match
// whole segments, so a path that only shares a prefix with one above
// answers 404; a listed path under another method answers 405 with an
// Allow header. Every response, errors included, is JSON.
//
// Example (synthetic demo data, default policy):
//
//	curl -s localhost:8080/v1/audit -d '{"synthetic":{"n":5000,"bias":1.0}}'
//
// Upload-once workflow — load a dataset, then audit it by ref as often
// as policies change, without re-shipping or re-parsing the bytes:
//
//	ref=$(curl -s localhost:8080/v1/datasets -H 'Content-Type: text/csv' \
//	      --data-binary @credit.csv | jq -r .ref)
//	curl -s localhost:8080/v1/audit -d "{\"dataset_ref\":\"$ref\"}"
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/monitor"
	"github.com/responsible-data-science/rds/internal/pipeline"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/store"
	"github.com/responsible-data-science/rds/internal/store/fsjson"
	"github.com/responsible-data-science/rds/internal/store/memory"
	"github.com/responsible-data-science/rds/internal/tenant"
	"github.com/responsible-data-science/rds/internal/tenantapi"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "audit workers (default GOMAXPROCS)")
	queue := flag.Int("queue", 64, "job queue capacity (backpressure bound)")
	timeout := flag.Duration("timeout", 60*time.Second, "per-job wall-clock timeout")
	cache := flag.Int("cache", 128, "report cache entries (negative disables)")
	allowPaths := flag.Bool("allow-paths", false, "allow audits of server-local CSV paths")
	datasetBudget := flag.Int64("dataset-budget-bytes", dataset.DefaultBudgetBytes, "byte budget for registry-resident datasets (LRU-evicted, monitor baselines pinned)")
	chunkCacheBytes := flag.Int64("chunk-cache-bytes", dataset.DefaultStateBudgetBytes, "byte budget for the per-chunk drift states sliding monitor windows reuse, so a window advance scores in O(delta) (<= 0 selects the default; a miss rebuilds the chunk's state)")
	stateDir := flag.String("state-dir", "", "directory for durable state (monitors, baseline profiles, resident datasets, tenant quotas); empty keeps all state in memory")
	tenantRate := flag.Float64("tenant-rate", 0, "default per-tenant sustained submissions/sec (token bucket; 0 disables)")
	tenantBurst := flag.Int("tenant-burst", 0, "default per-tenant submission burst (0 derives from -tenant-rate)")
	tenantMaxQueue := flag.Int("tenant-max-queue", 0, "default per-tenant queued-job bound (0 = aggregate -queue bound only)")
	flag.Parse()

	// The state store: crash-safe JSON under -state-dir, or a process-
	// lifetime in-memory store when the flag is empty (today's
	// behavior). A corrupt state directory refuses to start — the error
	// names the offending file; repair or move it rather than letting
	// the service run on partial state.
	var st store.Store
	if *stateDir != "" {
		fs, err := fsjson.Open(*stateDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rds-serve:", err)
			os.Exit(1)
		}
		st = fs
	} else {
		st = memory.New()
	}

	// The tenant quota registry is the source of truth every plane
	// consults; it restores persisted overrides first so the dataset
	// and monitor restores below run under the right quotas.
	tenants := tenant.NewRegistry(tenant.Quotas{
		RatePerSec: *tenantRate,
		Burst:      *tenantBurst,
		MaxQueue:   *tenantMaxQueue,
	})
	if err := tenants.AttachStore(st); err != nil {
		fmt.Fprintln(os.Stderr, "rds-serve:", err)
		os.Exit(1)
	}

	engine := serve.NewEngine(serve.Config{
		Workers:      *workers,
		QueueSize:    *queue,
		JobTimeout:   *timeout,
		CacheSize:    *cache,
		TenantQuotas: tenants.Quotas,
	})
	datasets := dataset.NewRegistry(*datasetBudget)
	datasets.UseQuotas(tenants.Quotas)
	chunkStates := dataset.NewStateCache(*chunkCacheBytes)
	registry, err := monitor.NewRegistry(monitor.RegistryConfig{
		Engine:      engine,
		Datasets:    datasets,
		ChunkStates: chunkStates,
		Sinks:       []monitor.Sink{&monitor.LogSink{}},
		Store:       st,
		Quotas:      tenants.Quotas,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rds-serve:", err)
		os.Exit(1)
	}
	defer registry.Close()

	// Restore order matters: tenants restored above (quotas first),
	// then datasets (so monitors can re-pin their baselines), then
	// monitors — all before the listener opens.
	if err := datasets.AttachStore(st); err != nil {
		fmt.Fprintln(os.Stderr, "rds-serve:", err)
		os.Exit(1)
	}
	restored, err := registry.Restore()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rds-serve:", err)
		os.Exit(1)
	}
	// Pipelines restore last: an interrupted run resumes by replaying
	// its completed stages against the referenced dataset, so the
	// dataset registry must already be resident.
	pipelines := pipeline.NewRegistry(engine, datasets, tenants.Quotas)
	if err := pipelines.AttachStore(st); err != nil {
		fmt.Fprintln(os.Stderr, "rds-serve:", err)
		os.Exit(1)
	}
	if *stateDir != "" {
		fmt.Printf("rds-serve restored %d monitors and %d datasets from %s\n",
			restored, len(datasets.List()), *stateDir)
	}

	handler := serve.NewHandler(engine)
	handler.AllowPaths = *allowPaths
	handler.Datasets = datasets
	monitors := monitor.NewHandler(registry)
	handler.MonitorMetrics = func() any { return registry.Metrics() }
	handler.ChunkStates = chunkStates
	tenantsAPI := &tenantapi.Handler{
		Tenants:   tenants,
		Datasets:  datasets,
		Monitors:  registry,
		Pipelines: pipelines,
	}

	routes := handler.Mount(dataset.NewHandler(datasets).Routes(), monitors.Routes(),
		pipeline.NewHandler(pipelines).Routes(), tenantsAPI.Routes())
	server := &http.Server{
		Addr:              *addr,
		Handler:           routes,
		ReadHeaderTimeout: 10 * time.Second,
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = server.Shutdown(ctx)
	}()

	cfg := engine.Config()
	// Every audit's row-scans run at GOMAXPROCS shards (internal/exec).
	fmt.Printf("rds-serve listening on %s (%d workers, %d shards/audit, queue %d, cache %d, timeout %s, dataset budget %d MiB, chunk cache %d MiB)\n",
		*addr, cfg.Workers, runtime.GOMAXPROCS(0), cfg.QueueSize, cfg.CacheSize, cfg.JobTimeout, datasets.Budget()>>20, chunkStates.Budget()>>20)
	if err := server.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "rds-serve:", err)
		os.Exit(1)
	}
	engine.Close()
}
