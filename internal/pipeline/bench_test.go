package pipeline

import (
	"testing"
	"time"

	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/store/memory"
	"github.com/responsible-data-science/rds/internal/synth"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// BenchmarkPipelineRun times one full default curriculum (train →
// audit → mitigate → re-audit → ldp-privatize → retrain → re-audit)
// end to end through the staged runtime: submit, stage-by-stage
// scheduling through admission, per-stage persistence into the memory
// store, and the poll-to-terminal a client pays. This is the headline
// cost of the remediation plane — the number BENCH_10.json baselines
// and the CI benchcmp gate watches.
func BenchmarkPipelineRun(b *testing.B) {
	engine := serve.NewEngine(serve.Config{Workers: 2, QueueSize: 64, JobTimeout: time.Minute})
	defer engine.Close()
	datasets := dataset.NewRegistry(0)
	f, err := synth.Credit(synth.CreditConfig{N: 2000, Bias: 1.0, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	meta, err := datasets.PutAs(tenant.Default, "credit", f)
	if err != nil {
		b.Fatal(err)
	}
	runs := NewRegistry(engine, datasets, nil)
	if err := runs.AttachStore(memory.New()); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh seed each iteration keeps every run's training real
		// (deterministic replay would otherwise be a same-bytes rerun).
		rec, err := runs.Submit(tenant.Default, Spec{DatasetRef: meta.Ref, TrainWire: serve.TrainWire{Epochs: 20}, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		for {
			cur, ok := runs.Get(tenant.Default, rec.ID)
			if !ok {
				b.Fatalf("run %s vanished", rec.ID)
			}
			if terminal(cur.Status) {
				if cur.Status != serve.StatusDone {
					b.Fatalf("run %s = %s (%s)", rec.ID, cur.Status, cur.Error)
				}
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	b.ReportMetric(float64(b.N*len(DefaultStages))/b.Elapsed().Seconds(), "stages/s")
}
