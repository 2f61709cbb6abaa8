// Benchmarks: one per reproduction experiment (the tables and figures in
// EXPERIMENTS.md regenerate through the same code), plus the ablations
// DESIGN.md calls out and micro-benchmarks of the hot substrates.
//
//	go test -bench=. -benchmem
package rds_test

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/responsible-data-science/rds/internal/causal"
	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/experiments"
	"github.com/responsible-data-science/rds/internal/explain"
	"github.com/responsible-data-science/rds/internal/fairness"
	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/ml"
	"github.com/responsible-data-science/rds/internal/monitor"
	"github.com/responsible-data-science/rds/internal/privacy"
	"github.com/responsible-data-science/rds/internal/procmine"
	"github.com/responsible-data-science/rds/internal/provenance"
	"github.com/responsible-data-science/rds/internal/rng"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/stream"
	"github.com/responsible-data-science/rds/internal/synth"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// benchExperiment runs one registered experiment per iteration at Quick
// scale; failures fail the benchmark rather than silently skewing it.
func benchExperiment(b *testing.B, run func(experiments.Scale) (*experiments.Result, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := run(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1Fairness(b *testing.B)        { benchExperiment(b, experiments.E1FairnessMitigation) }
func BenchmarkE2Redlining(b *testing.B)       { benchExperiment(b, experiments.E2Redlining) }
func BenchmarkE3MultipleTesting(b *testing.B) { benchExperiment(b, experiments.E3MultipleTesting) }
func BenchmarkE4Simpson(b *testing.B)         { benchExperiment(b, experiments.E4Simpson) }
func BenchmarkE5Coverage(b *testing.B)        { benchExperiment(b, experiments.E5Coverage) }
func BenchmarkE6PrivacyBudget(b *testing.B)   { benchExperiment(b, experiments.E6PrivacyBudget) }
func BenchmarkE7Anonymity(b *testing.B)       { benchExperiment(b, experiments.E7Anonymity) }
func BenchmarkE8Transparency(b *testing.B)    { benchExperiment(b, experiments.E8Transparency) }
func BenchmarkE9Causal(b *testing.B)          { benchExperiment(b, experiments.E9Causal) }
func BenchmarkE10InternetMinute(b *testing.B) { benchExperiment(b, experiments.E10InternetMinute) }
func BenchmarkE11Governance(b *testing.B)     { benchExperiment(b, experiments.E11Governance) }
func BenchmarkE12Provenance(b *testing.B)     { benchExperiment(b, experiments.E12Provenance) }

// --- Audit service (internal/serve) ---

// submitAudit submits req as its one-stage audit job.
func submitAudit(e *serve.Engine, req *serve.Request) (string, error) {
	spec, err := e.AuditJob(req)
	if err != nil {
		return "", err
	}
	return e.Submit(spec)
}

// BenchmarkBatchAudit measures batch FACT-audit throughput: the same 16
// synthetic datasets audited back-to-back on one goroutine (the
// pre-serve baseline) vs. fanned out over the serve.Engine worker pool.
// Speedup tracks core count; run with -cpu to pin GOMAXPROCS. The cache
// is disabled so every job pays the full pipeline cost (see
// BenchmarkAuditCache for the hit path).
func BenchmarkBatchAudit(b *testing.B) {
	const batch = 16
	requests := make([]*serve.Request, batch)
	for i := range requests {
		data, err := synth.Credit(synth.CreditConfig{N: 1500, Bias: 1.0, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		requests[i] = &serve.Request{
			Dataset: fmt.Sprintf("credit-%02d", i),
			Data:    data,
			Policy:  serve.DefaultPolicy(),
			Spec: core.TrainSpec{
				Target: "approved", Sensitive: "group",
				Protected: "B", Reference: "A", Epochs: 20,
			},
			Seed: uint64(i + 1),
		}
	}

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, req := range requests {
				if _, err := serve.RunAudit(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "audits/s")
	})
	for _, workers := range []int{2, 8} {
		b.Run(fmt.Sprintf("pool%d", workers), func(b *testing.B) {
			e := serve.NewEngine(serve.Config{
				Workers: workers, QueueSize: batch,
				JobTimeout: 5 * time.Minute, CacheSize: -1,
			})
			defer e.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids := make([]string, batch)
				for j, req := range requests {
					id, err := submitAudit(e, req)
					if err != nil {
						b.Fatal(err)
					}
					ids[j] = id
				}
				for _, id := range ids {
					js, err := e.Wait(context.Background(), id)
					if err != nil {
						b.Fatal(err)
					}
					if js.Status != serve.StatusDone {
						b.Fatalf("job %s: %s (%s)", id, js.Status, js.Error)
					}
				}
			}
			b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "audits/s")
		})
	}
}

// BenchmarkAuditCache isolates the report cache: the same request over
// and over, so every iteration after the first is a hash-lookup hit
// instead of a full pipeline run.
func BenchmarkAuditCache(b *testing.B) {
	data, err := synth.Credit(synth.CreditConfig{N: 1500, Bias: 1.0, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	req := &serve.Request{
		Dataset: "credit",
		Data:    data,
		Policy:  serve.DefaultPolicy(),
		Spec: core.TrainSpec{
			Target: "approved", Sensitive: "group",
			Protected: "B", Reference: "A", Epochs: 20,
		},
		Seed: 1,
	}
	e := serve.NewEngine(serve.Config{Workers: 1, JobTimeout: 5 * time.Minute})
	defer e.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := submitAudit(e, req)
		if err != nil {
			b.Fatal(err)
		}
		if js, err := e.Wait(context.Background(), id); err != nil || js.Status != serve.StatusDone {
			b.Fatalf("job %s: %v %v", id, js.Status, err)
		}
	}
}

// BenchmarkAuditPhases decomposes an uncached audit (serve.RunAudit's
// Load, Train and Audit) into its phases at 2k, 20k and 200k rows. The
// "phases" arm replays the calls the pipeline makes and reports each
// phase in ms/op: the frame hash, FromFrame plus the train/test split,
// logistic training, test-set prediction, the fairness kernel, the
// surrogate tree, and the JSON encode of the report. The "audit" arm
// runs the whole engine path (AuditJob, Submit, Wait) with a fresh seed
// per iteration, so every audit misses the report cache and pays the
// cache-key hash as the service does. Run with -benchmem.
func BenchmarkAuditPhases(b *testing.B) {
	spec := core.TrainSpec{Target: "approved", Sensitive: "group", Protected: "B", Reference: "A", TestFraction: 0.3, Epochs: 40}
	for _, rows := range []int{2000, 20000, 200000} {
		data, err := synth.Credit(synth.CreditConfig{N: rows, Bias: 1.0, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rows=%d/phases", rows), func(b *testing.B) {
			rep, err := serve.RunAudit(context.Background(), &serve.Request{
				Dataset: "credit", Data: data, Policy: serve.DefaultPolicy(), Spec: spec, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			names := []string{"hash", "split", "train", "predict", "fairness", "surrogate", "encode"}
			spent := make([]time.Duration, len(names))
			phase := func(k int, fn func() error) {
				start := time.Now()
				if err := fn(); err != nil {
					b.Fatal(err)
				}
				spent[k] += time.Since(start)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var ds, train, test *ml.Dataset
				var model *ml.Logistic
				var testIdx []int
				var preds []float64
				phase(0, func() error { _ = data.Hash(); return nil })
				phase(1, func() (err error) {
					if ds, err = ml.FromFrame(data, spec.Target, spec.Sensitive); err != nil {
						return err
					}
					perm := rng.New(1).Perm(ds.N())
					nTest := int(float64(ds.N()) * spec.TestFraction)
					testIdx = perm[:nTest]
					train, test = ds.Subset(perm[nTest:]), ds.Subset(testIdx)
					return nil
				})
				phase(2, func() (err error) {
					model, err = ml.TrainLogistic(train, ml.LogisticConfig{Epochs: spec.Epochs, Seed: 1})
					return err
				})
				phase(3, func() error {
					probs := ml.PredictProbaAll(model, test.X)
					preds = make([]float64, len(probs))
					for j, p := range probs {
						if p >= 0.5 {
							preds[j] = 1
						}
					}
					return nil
				})
				phase(4, func() error {
					_, err := fairness.EvaluateSeriesSharded(test.Y, preds, data.MustCol(spec.Sensitive).Take(testIdx),
						spec.Protected, spec.Reference, runtime.GOMAXPROCS(0))
					return err
				})
				phase(5, func() error {
					_, err := explain.FitSurrogate(model, test, 4)
					return err
				})
				phase(6, func() error {
					_, err := json.Marshal(rep)
					return err
				})
			}
			for k, name := range names {
				b.ReportMetric(float64(spent[k])/float64(time.Millisecond)/float64(b.N), name+"-ms/op")
			}
		})
		b.Run(fmt.Sprintf("rows=%d/audit", rows), func(b *testing.B) {
			e := serve.NewEngine(serve.Config{Workers: 1, QueueSize: 1, JobTimeout: 10 * time.Minute})
			defer e.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := submitAudit(e, &serve.Request{
					Dataset: "credit", Data: data, Policy: serve.DefaultPolicy(), Spec: spec, Seed: uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				js, err := e.Wait(context.Background(), id)
				if err != nil {
					b.Fatal(err)
				}
				if js.Status != serve.StatusDone || js.CacheHit {
					b.Fatalf("job %s: %s, cache hit %v (%s)", id, js.Status, js.CacheHit, js.Error)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "audits/s")
		})
	}
}

// BenchmarkFrameIngest times the two steps that turn an inline CSV body
// into a content-addressed frame, on the 20k-row credit CSV an
// audit-inline-20k request carries (1.29 MB, 7 columns): "parse" is
// frame.ReadCSVString and "hash" is Frame.Hash, the dataset ref and the
// report cache key. Run with -benchmem.
func BenchmarkFrameIngest(b *testing.B) {
	data, err := synth.Credit(synth.CreditConfig{N: 20000, Bias: 1.0, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	csv, err := data.CSVString()
	if err != nil {
		b.Fatal(err)
	}
	parsed, err := frame.ReadCSVString(csv)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := frame.ReadCSVString(csv); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = parsed.Hash()
		}
	})
}

// BenchmarkRegistryResolve measures what the content-addressed dataset
// registry buys the repeat-audit hot path at 1M rows. Both arms run in
// the steady state (the report cache already holds the audit), which
// is exactly the scenario the registry targets: the same institutional
// dataset audited again and again. "inline-csv" pays the full data
// shipping cost per request — parse 1M rows of CSV, hash the frame for
// the cache key — while "dataset-ref" resolves the resident frame by
// content hash and reuses the ref as the cache key: an O(1) lookup.
// The gap is the ≥10x the ISSUE acceptance demands; in practice it is
// several orders of magnitude.
func BenchmarkRegistryResolve(b *testing.B) {
	const rows = 1_000_000
	data, err := synth.Credit(synth.CreditConfig{N: rows, Bias: 0.5, Seed: 47})
	if err != nil {
		b.Fatal(err)
	}
	csv, err := data.CSVString()
	if err != nil {
		b.Fatal(err)
	}
	reg := dataset.NewRegistry(1 << 30)
	meta, err := reg.PutAs(tenant.Default, "credit-1m", data)
	if err != nil {
		b.Fatal(err)
	}
	e := serve.NewEngine(serve.Config{Workers: 2, JobTimeout: 10 * time.Minute, CacheSize: 8})
	defer e.Close()
	spec := core.TrainSpec{
		Target: "approved", Sensitive: "group",
		Protected: "B", Reference: "A", Epochs: 3,
	}
	submitWait := func(req *serve.Request) serve.JobStatus {
		id, err := submitAudit(e, req)
		if err != nil {
			b.Fatal(err)
		}
		js, err := e.Wait(context.Background(), id)
		if err != nil || js.Status != serve.StatusDone {
			b.Fatalf("job %s: %v %v %s", id, js.Status, err, js.Error)
		}
		return js
	}
	// One full audit outside the timers fills the report cache.
	submitWait(&serve.Request{
		Dataset: "credit-1m", Data: data, DataHash: meta.Ref,
		Policy: serve.DefaultPolicy(), Spec: spec, Seed: 1,
	})

	b.Run("inline-csv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parsed, err := frame.ReadCSVString(csv)
			if err != nil {
				b.Fatal(err)
			}
			js := submitWait(&serve.Request{
				Dataset: "credit-1m", Data: parsed,
				Policy: serve.DefaultPolicy(), Spec: spec, Seed: 1,
			})
			if !js.CacheHit {
				b.Fatal("inline submit missed the warmed report cache")
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})
	b.Run("dataset-ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resident, _, ok := reg.ResolveAs(tenant.Default, meta.Ref)
			if !ok {
				b.Fatal("resident dataset missing")
			}
			js := submitWait(&serve.Request{
				Dataset: "credit-1m", Data: resident, DataHash: meta.Ref,
				Policy: serve.DefaultPolicy(), Spec: spec, Seed: 1,
			})
			if !js.CacheHit {
				b.Fatal("ref submit missed the warmed report cache")
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})
}

// BenchmarkDriftBaseline measures what the baseline profile buys the
// monitoring plane's per-window drift scoring, sweeping the pinned
// baseline up to 1M rows: "recompute" is the legacy DetectDrift path
// that re-sorts the immutable baseline's numeric columns and recounts
// its levels on every window, "profiled" scores the same window
// against a BaselineProfile built once outside the timer (its one-time
// cost is the "build" arm). The two reports are byte-identical —
// asserted before timing — so only the per-window cost moves: the
// profiled path does no per-window baseline sort, which the allocation
// counts make visible.
func BenchmarkDriftBaseline(b *testing.B) {
	const windowRows = 2_000
	window, err := synth.Credit(synth.CreditConfig{N: windowRows, Bias: 0.8, GroupBFraction: 0.5, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	cfg := monitor.DriftConfig{}
	for _, baseRows := range []int{100_000, 1_000_000} {
		baseline, err := synth.Credit(synth.CreditConfig{N: baseRows, Bias: 0.5, Seed: 41})
		if err != nil {
			b.Fatal(err)
		}
		prof, err := monitor.NewBaselineProfile(baseline, cfg)
		if err != nil {
			b.Fatal(err)
		}
		want, err := monitor.DetectDrift(baseline, window, cfg)
		if err != nil {
			b.Fatal(err)
		}
		got, err := monitor.DetectDriftProfiled(prof, window)
		if err != nil {
			b.Fatal(err)
		}
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(got)
		if string(wantJSON) != string(gotJSON) {
			b.Fatalf("profiled drift report diverged from recompute at %d rows:\n%s\nvs\n%s", baseRows, wantJSON, gotJSON)
		}
		b.Run(fmt.Sprintf("rows=%d/recompute", baseRows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := monitor.DetectDrift(baseline, window, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "windows/s")
		})
		b.Run(fmt.Sprintf("rows=%d/profiled", baseRows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := monitor.DetectDriftProfiled(prof, window); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "windows/s")
		})
		b.Run(fmt.Sprintf("rows=%d/build", baseRows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := monitor.NewBaselineProfile(baseline, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSlidingReaudit measures what the chunk-state cache buys a
// sliding-window re-audit at a 1M-row window (100 chunks of 10k rows).
// Per iteration the window advances by delta chunks and is re-scored
// against the pinned baseline profile. The "rescan" arm times the
// reference oracle, which no production path runs: materialize the
// window frame with the one-pass Append the monitor's audits use, then
// DetectDriftProfiled over the 1M flat rows. The "incremental" arm is
// ChunkScorer.Score, the monitor's only drift path:
// surviving chunk states come out of the cache, so only the delta rows
// are sorted and ranked, and each numeric column costs one pass over
// the window's slots and the baseline's distinct values. The two
// reports are byte-identical — asserted before any timer starts — so
// only cost moves. At a 1% delta the incremental arm measured 6.2x
// faster than the rescan (BENCH_19.json); no test asserts a ratio.
func BenchmarkSlidingReaudit(b *testing.B) {
	const (
		partRows    = 10_000
		windowParts = 100 // 1M-row window
		poolParts   = 200 // ring of distinct chunks the window slides over
	)
	pool, err := synth.Credit(synth.CreditConfig{N: poolParts * partRows, Bias: 0.5, Seed: 61})
	if err != nil {
		b.Fatal(err)
	}
	parts := make([]monitor.Chunk, poolParts)
	for i := range parts {
		rows := pool.Slice(i*partRows, (i+1)*partRows)
		parts[i] = monitor.Chunk{Rows: rows, Hash: rows.Hash()}
	}
	window := func(start int) []monitor.Chunk {
		out := make([]monitor.Chunk, windowParts)
		for j := range out {
			out[j] = parts[(start+j)%poolParts]
		}
		return out
	}
	materialize := func(chunks []monitor.Chunk) *frame.Frame {
		rest := make([]*frame.Frame, len(chunks)-1)
		for i, ch := range chunks[1:] {
			rest[i] = ch.Rows
		}
		out, err := chunks[0].Rows.Append(rest...)
		if err != nil {
			b.Fatal(err)
		}
		return out
	}

	baseline := materialize(window(0))
	prof, err := monitor.NewBaselineProfile(baseline, monitor.DriftConfig{})
	if err != nil {
		b.Fatal(err)
	}

	// Bit-identity gate: the incremental report must match the rescan
	// report exactly before either arm is worth timing.
	{
		sc, err := monitor.NewChunkScorer(prof, dataset.NewStateCache(dataset.DefaultStateBudgetBytes))
		if err != nil {
			b.Fatal(err)
		}
		w := window(windowParts / 2)
		inc, err := sc.Score(w)
		if err != nil {
			b.Fatal(err)
		}
		want, err := monitor.DetectDriftProfiled(prof, materialize(w))
		if err != nil {
			b.Fatal(err)
		}
		incJSON, _ := json.Marshal(inc)
		wantJSON, _ := json.Marshal(want)
		if string(incJSON) != string(wantJSON) {
			b.Fatalf("incremental report diverged from rescan:\n%s\nvs\n%s", incJSON, wantJSON)
		}
	}

	for _, deltaParts := range []int{1, 10, 100} {
		pct := deltaParts * 100 / windowParts
		b.Run(fmt.Sprintf("delta=%d%%/incremental", pct), func(b *testing.B) {
			cache := dataset.NewStateCache(dataset.DefaultStateBudgetBytes)
			sc, err := monitor.NewChunkScorer(prof, cache)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sc.Score(window(0)); err != nil { // warm the starting window's states
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sc.Score(window((i + 1) * deltaParts)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(windowParts*partRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "windows/s")
		})
		b.Run(fmt.Sprintf("delta=%d%%/rescan", pct), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f := materialize(window((i + 1) * deltaParts))
				if _, err := monitor.DetectDriftProfiled(prof, f); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(windowParts*partRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "windows/s")
		})
	}
}

// BenchmarkChunkScoreStream times ChunkScorer.Score at the shape of the
// service benchmark's monitor-stream workload: a 20k-row baseline
// profile and a sliding window of 20 chunks of 1k rows, one new chunk
// entering per iteration. The chunk-state cache holds the 19 surviving
// states, so an iteration builds one state and scores the window. The
// chunks cycle through a ring of distinct frames; each lap labels them
// with fresh hashes, so the entering chunk always misses the cache as
// a new arrival batch does.
func BenchmarkChunkScoreStream(b *testing.B) {
	const (
		baseRows    = 20_000
		chunkRows   = 1_000
		windowParts = 20
		ringParts   = 64
	)
	base, err := synth.Credit(synth.CreditConfig{N: baseRows, Bias: 0.5, Seed: 71})
	if err != nil {
		b.Fatal(err)
	}
	prof, err := monitor.NewBaselineProfile(base, monitor.DriftConfig{})
	if err != nil {
		b.Fatal(err)
	}
	pool, err := synth.Credit(synth.CreditConfig{N: ringParts * chunkRows, Bias: 0.5, Seed: 72})
	if err != nil {
		b.Fatal(err)
	}
	ring := make([]monitor.Chunk, ringParts)
	for i := range ring {
		rows := pool.Slice(i*chunkRows, (i+1)*chunkRows)
		ring[i] = monitor.Chunk{Rows: rows, Hash: rows.Hash()}
	}
	chunk := func(g int) monitor.Chunk {
		ch := ring[g%ringParts]
		ch.Hash = fmt.Sprintf("%s/lap-%d", ch.Hash, g/ringParts)
		return ch
	}
	sc, err := monitor.NewChunkScorer(prof, dataset.NewStateCache(dataset.DefaultStateBudgetBytes))
	if err != nil {
		b.Fatal(err)
	}
	window := make([]monitor.Chunk, 0, windowParts+b.N)
	for g := 0; g < windowParts; g++ {
		window = append(window, chunk(g))
	}
	if _, err := sc.Score(window); err != nil { // warm the starting window's states
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		window = append(window, chunk(windowParts+i))
		if _, err := sc.Score(window[len(window)-windowParts:]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "windows/s")
}

// BenchmarkMonitorWindow measures the monitoring plane's steady-state
// per-window cost: after a one-time baseline audit, every iteration
// ingests one 500-row window plus the heartbeat that closes it, paying
// window assignment and per-column PSI/KS drift scoring against the
// pinned baseline from chunk states. The registry has no chunk-state
// cache, so every window builds its one chunk's state; no frame is
// materialized. The audit cadence is set past b.N so the engine's
// pipeline cost (measured by BenchmarkBatchAudit) stays out of the
// loop.
func BenchmarkMonitorWindow(b *testing.B) {
	const windowRows = 500
	engine := serve.NewEngine(serve.Config{Workers: 2, QueueSize: 8, JobTimeout: 5 * time.Minute})
	defer engine.Close()
	reg, err := monitor.NewRegistry(monitor.RegistryConfig{Engine: engine})
	if err != nil {
		b.Fatal(err)
	}
	defer reg.Close()
	m, err := reg.Register(monitor.Spec{
		Name:   "bench",
		Policy: serve.DefaultPolicy(),
		Train: core.TrainSpec{
			Target: "approved", Sensitive: "group",
			Protected: "B", Reference: "A", Epochs: 20,
		},
		Window:     monitor.WindowConfig{WidthMS: 1000},
		AuditEvery: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	data, err := synth.Credit(synth.CreditConfig{N: windowRows, Bias: 1.0, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	// Baseline window: the only audit in the benchmark.
	if err := m.Ingest(stream.Arrival{TimeMS: 0, Rows: data}, stream.Arrival{TimeMS: 1000}); err != nil {
		b.Fatal(err)
	}
	if !m.Status().BaselinePinned {
		b.Fatalf("baseline audit failed: %+v", m.History())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := int64(i+1) * 1000
		err := m.Ingest(
			stream.Arrival{TimeMS: t0, Rows: data},
			stream.Arrival{TimeMS: t0 + 1000}, // heartbeat closes window i+1
		)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(windowRows*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// --- Ablations (design choices DESIGN.md commits to) ---

// Ablation: the three fairness mitigations at fixed bias.
func BenchmarkAblationMitigation(b *testing.B) {
	f, err := synth.Credit(synth.CreditConfig{N: 4000, Bias: 1.0, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := ml.FromFrame(f, "approved", "group")
	if err != nil {
		b.Fatal(err)
	}
	groups := f.MustCol("group").Strings()
	y := f.MustCol("approved").Floats()
	base, err := ml.TrainLogistic(ds, ml.LogisticConfig{Epochs: 30})
	if err != nil {
		b.Fatal(err)
	}
	probs := ml.PredictProbaAll(base, ds.X)

	b.Run("reweigh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w, err := fairness.Reweigh(y, groups)
			if err != nil {
				b.Fatal(err)
			}
			weighted := ds.Clone()
			weighted.Weights = w
			if _, err := ml.TrainLogistic(weighted, ml.LogisticConfig{Epochs: 30}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("massage", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			labels, _, err := fairness.Massage(y, groups, probs, "B", "A")
			if err != nil {
				b.Fatal(err)
			}
			msDS := ds.Clone()
			msDS.Y = labels
			if _, err := ml.TrainLogistic(msDS, ml.LogisticConfig{Epochs: 30}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("threshold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			th, err := fairness.OptimizeThresholds(y, probs, groups, "B", "A", fairness.DemographicParity)
			if err != nil {
				b.Fatal(err)
			}
			th.Apply(probs, groups)
		}
	})
	b.Run("di-repair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fairness.RepairDisparateImpact(ds, groups, 1.0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation: Laplace vs Gaussian mechanism at matched (eps, delta).
func BenchmarkAblationDPMechanism(b *testing.B) {
	src := rng.New(7)
	for _, mech := range []string{"laplace", "gaussian"} {
		b.Run(mech, func(b *testing.B) {
			// A fresh single-query budget per iteration: delta composition
			// caps how much one accountant can hold, and both arms pay the
			// same construction cost.
			for i := 0; i < b.N; i++ {
				bud, err := privacy.NewBudget(1.1, 1e-4)
				if err != nil {
					b.Fatal(err)
				}
				if mech == "laplace" {
					_, err = privacy.LaplaceMechanism(bud, "l", 100, 1, 1.0, src)
				} else {
					_, err = privacy.GaussianMechanism(bud, "g", 100, 1, 1.0, 1e-5, src)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: matching caliper width (cost and match count move together).
func BenchmarkAblationCaliper(b *testing.B) {
	f, err := synth.AdCampaign(synth.AdCampaignConfig{N: 10000, Confounding: 1.0, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	study, err := causal.StudyFromFrame(f, "exposed", "converted", "base_p")
	if err != nil {
		b.Fatal(err)
	}
	ps, err := causal.PropensityScores(study)
	if err != nil {
		b.Fatal(err)
	}
	for _, caliper := range []float64{0.01, 0.05, 0.2} {
		b.Run(fmt.Sprintf("caliper=%.2f", caliper), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := causal.PSMatchWithScores(study, ps, causal.MatchingConfig{
					Caliper: caliper, WithReplacement: true,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: Mondrian k (partitioning cost vs k).
func BenchmarkAblationMondrianK(b *testing.B) {
	f, err := synth.Hospital(synth.HospitalConfig{N: 3000, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{2, 10, 50} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := privacy.Anonymize(f, privacy.AnonymizeConfig{
					K: k, QuasiIdentifiers: []string{"age", "sex", "zip"},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Micro-benchmarks of the hot substrates ---

func BenchmarkStreamGenerator(b *testing.B) {
	gen, err := stream.NewGenerator(stream.GeneratorConfig{RateScale: 1.0, Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gen.Next()
	}
}

func BenchmarkSpaceSavingObserve(b *testing.B) {
	s, err := stream.NewSpaceSaving(100)
	if err != nil {
		b.Fatal(err)
	}
	z := rng.NewZipf(100000, 1.2)
	src := rng.New(15)
	items := make([]uint64, 65536)
	for i := range items {
		items[i] = uint64(z.Draw(src))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(items[i&65535])
	}
}

func BenchmarkLogisticTrain(b *testing.B) {
	f, err := synth.Credit(synth.CreditConfig{N: 5000, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := ml.FromFrame(f, "approved", "group")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.TrainLogistic(ds, ml.LogisticConfig{Epochs: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogisticTrainWidth times TrainLogistic at the audit's cap of
// 40 iterations on a 70% training split of wider frames than the
// audit's credit data: synth.Hospital, 67 features after one-hot
// encoding of which 3 are dense, and synth.JunkPredictors with p dense
// predictors, a quarter of them carrying signal. A Newton pass costs
// each row the square of its dense features plus its nonzeros, so the
// junk arms show where the trainer slows down with width.
func BenchmarkLogisticTrainWidth(b *testing.B) {
	run := func(b *testing.B, f *frame.Frame, target string, exclude ...string) {
		ds, err := ml.FromFrame(f, target, exclude...)
		if err != nil {
			b.Fatal(err)
		}
		perm := rng.New(1).Perm(ds.N())
		train := ds.Subset(perm[int(0.3*float64(ds.N())):])
		b.ReportMetric(float64(ds.D()), "features")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ml.TrainLogistic(train, ml.LogisticConfig{Epochs: 40}); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, rows := range []int{2000, 20000} {
		f, err := synth.Hospital(synth.HospitalConfig{N: rows, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("hospital/rows=%d", rows), func(b *testing.B) { run(b, f, "readmitted", "sex") })
	}
	for _, p := range []int{8, 16, 24, 32, 48, 64, 96, 128, 200} {
		f, err := synth.JunkPredictors(synth.JunkPredictorsConfig{N: 5000, Predictors: p, Signal: p / 4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("junk/rows=5000/p=%d", p), func(b *testing.B) { run(b, f, "response") })
	}
}

func BenchmarkTreeTrain(b *testing.B) {
	f, err := synth.Credit(synth.CreditConfig{N: 2000, Seed: 19})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := ml.FromFrame(f, "approved", "group")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.TrainTree(ds, ml.TreeConfig{MaxDepth: 6}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameGroupBy(b *testing.B) {
	f, err := synth.Hospital(synth.HospitalConfig{N: 10000, Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.GroupBy("diagnosis", "sex"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashFrame(b *testing.B) {
	f, err := synth.Credit(synth.CreditConfig{N: 5000, Seed: 23})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := provenance.HashFrame(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAuditAppend(b *testing.B) {
	log := provenance.NewAuditLog()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		log.Append("bench", "event", "subject", "details")
	}
}

func BenchmarkPaillierEncrypt(b *testing.B) {
	key, err := privacy.GeneratePaillier(512)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := key.Pub.EncryptInt64(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFairnessEvaluate(b *testing.B) {
	f, err := synth.Credit(synth.CreditConfig{N: 10000, Bias: 0.5, Seed: 25})
	if err != nil {
		b.Fatal(err)
	}
	y := f.MustCol("approved").Floats()
	groups := f.MustCol("group").Strings()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fairness.Evaluate(y, y, groups, "B", "A"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContinualCounter(b *testing.B) {
	bud, err := privacy.NewBudget(1.0, 0)
	if err != nil {
		b.Fatal(err)
	}
	c, err := privacy.NewContinualCounter(bud, "bench", 1.0, 40, rng.New(29))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Increment(1); err != nil {
			b.Fatal(err)
		}
		_ = c.Count()
	}
}

func BenchmarkSparseVectorQuery(b *testing.B) {
	bud, err := privacy.NewBudget(1e9, 0)
	if err != nil {
		b.Fatal(err)
	}
	sv, err := privacy.NewSparseVector(bud, "bench", 1e12, 1, 1.0, 1, rng.New(31))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sv.Query(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProcessDiscovery(b *testing.B) {
	log, err := procmine.Generate(procmine.GeneratorConfig{Cases: 2000, Seed: 33})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := procmine.Discover(log); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProcessConformance(b *testing.B) {
	log, err := procmine.Generate(procmine.GeneratorConfig{Cases: 2000, Seed: 35})
	if err != nil {
		b.Fatal(err)
	}
	ref := procmine.NormativeDFG()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := procmine.CheckConformance(ref, log); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCSVRoundTrip(b *testing.B) {
	f, err := synth.Credit(synth.CreditConfig{N: 2000, Seed: 27})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := f.CSVString()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := frame.ReadCSVString(s); err != nil {
			b.Fatal(err)
		}
	}
}
