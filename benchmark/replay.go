package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/monitor"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/stream"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// replayOps is how many operations the traced run replays: enough for
// stable per-operation sums, few enough to finish in seconds.
var replayOps = map[string]int{
	"audit-inline-20k": 40,
	"audit-ref-2k":     400,
	"monitor-stream":   300,
}

// replay runs n operations of the workload in-process, on the same
// generated inputs, through each layer's public functions, recording
// spans in tr. It returns the number of operations replayed. Set-up
// work (uploads, the monitor registration) is replayed too, in a trace
// of its own, so per-operation figures include its amortized share.
func replay(tr *tracer, in *inputs, n int) (int, error) {
	r := &replayer{tr: tr, in: in, shards: runtime.GOMAXPROCS(0)}
	switch in.workload {
	case "audit-inline-20k":
		return n, r.each(n, r.inlineAudit)
	case "audit-ref-2k":
		f, err := r.setupUploads(in.refCSV)
		if err != nil {
			return 0, err
		}
		return n, r.each(n, func(j int) error { return r.refAudit(f[0], j) })
	case "monitor-stream":
		return r.monitorStream(n)
	}
	return 0, fmt.Errorf("unknown workload %q", in.workload)
}

type replayer struct {
	tr     *tracer
	in     *inputs
	shards int
}

func (r *replayer) each(n int, op func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := op(i); err != nil {
			return fmt.Errorf("replaying %s op %d: %w", r.in.workload, i, err)
		}
	}
	return nil
}

// setupUploads replays POST /v1/datasets for each CSV: the streaming
// parse, then the content hash that becomes the dataset ref.
func (r *replayer) setupUploads(csvs ...[]byte) ([]*frame.Frame, error) {
	end := r.tr.root("setup", 0)
	defer end()
	var out []*frame.Frame
	for _, csv := range csvs {
		f, err := r.readCSV(func() (*frame.Frame, error) { return frame.ReadCSV(bytes.NewReader(csv)) })
		if err != nil {
			return nil, err
		}
		r.hash(f)
		out = append(out, f)
	}
	return out, nil
}

func (r *replayer) readCSV(read func() (*frame.Frame, error)) (f *frame.Frame, err error) {
	err = r.tr.do("frame.read_csv", 0, func() error {
		f, err = read()
		return err
	})
	if f != nil {
		r.tr.spans[len(r.tr.spans)-1].Rows = f.NumRows()
	}
	return f, err
}

func (r *replayer) hash(f *frame.Frame) (h string) {
	_ = r.tr.do("frame.hash", f.NumRows(), func() error {
		h = f.Hash()
		return nil
	})
	return h
}

func (r *replayer) encode(v any) error {
	return r.tr.do("http.encode", 0, func() error {
		_, err := json.Marshal(v)
		return err
	})
}

func (r *replayer) composite(name string, seed uint64) *compositePass {
	return &compositePass{tr: r.tr, cfg: core.Config{
		Name: name, Policy: serve.DefaultPolicy(), Seed: seed, Actor: "rds-benchmark", Shards: r.shards,
	}}
}

func (r *replayer) leaves(seed uint64) *leafPass {
	return &leafPass{tr: r.tr, seed: seed, shards: r.shards}
}

// auditSpec is the training spec an audit request without overrides
// gets.
func auditSpec() core.TrainSpec {
	return core.TrainSpec{Target: "approved", Sensitive: "group", Protected: "B", Reference: "A"}
}

// runAudit replays serve.RunAudit: Load, Train, Audit.
func runAudit(p pass, name string, f *frame.Frame) (*core.FACTReport, error) {
	if err := p.load(name, f); err != nil {
		return nil, err
	}
	if err := p.train(auditSpec()); err != nil {
		return nil, err
	}
	return p.audit()
}

// leafAudit replays the leaf calls of one audit in a trace of its own.
func (r *replayer) leafAudit(root string, f *frame.Frame, seed uint64) error {
	end := r.tr.root(root, f.NumRows())
	defer end()
	_, err := runAudit(r.leaves(seed), "", f)
	return err
}

// inlineAudit replays POST /v1/audit with a text/csv body: copy the
// body, parse it, hash the frame for the report-cache key, audit, and
// encode the job status.
func (r *replayer) inlineAudit(i int) error {
	body := r.in.inlineCSV[i%len(r.in.inlineCSV)]
	seed := requestSeed(r.in.seed, i)
	end := r.tr.root("audit", inlineRows)
	var csv string
	_ = r.tr.do("http.decode", len(body), func() error {
		var b strings.Builder
		b.Write(body)
		csv = b.String()
		return nil
	})
	f, err := r.readCSV(func() (*frame.Frame, error) { return frame.ReadCSVString(csv) })
	if err != nil {
		return err
	}
	r.hash(f)
	rep, err := runAudit(r.composite("inline-20k", seed), "inline-20k", f)
	if err != nil {
		return err
	}
	if err := r.encode(serve.JobStatus{Status: serve.StatusDone, Report: rep}); err != nil {
		return err
	}
	end()
	return r.leafAudit("audit", f, seed)
}

// refAudit replays one report-cache miss of POST /v1/audit by
// dataset_ref: decode the JSON body, audit the resident frame, encode.
func (r *replayer) refAudit(f *frame.Frame, j int) error {
	body := refAuditBody("ref", requestSeed(r.in.seed, j))
	end := r.tr.root("audit", f.NumRows())
	var wire serve.AuditRequestWire
	err := r.tr.do("http.decode", len(body), func() error {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(&wire)
	})
	if err != nil {
		return err
	}
	rep, err := runAudit(r.composite("ref-2k", wire.Seed), "ref-2k", f)
	if err != nil {
		return err
	}
	if err := r.encode(serve.JobStatus{Status: serve.StatusDone, Report: rep}); err != nil {
		return err
	}
	end()
	return r.leafAudit("audit", f, wire.Seed)
}

// monitorStream replays the monitor workload. Set-up registers the
// monitor, which audits the baseline; that audit is replayed again,
// composite and leaf, as the registration runs it. Each batch is
// replayed twice: through Monitor.Ingest on an in-process registry with
// the served spec, and through the calls Ingest makes — the chunk hash
// and the incremental drift score over the closing window's chunks.
func (r *replayer) monitorStream(n int) (int, error) {
	if n > len(r.in.batches) {
		n = len(r.in.batches)
	}
	f, err := r.setupUploads(r.in.baselineCSV)
	if err != nil {
		return 0, err
	}
	baseline := f[0]

	engine := serve.NewEngine(serve.Config{})
	defer engine.Close()
	datasets := dataset.NewRegistry(dataset.DefaultBudgetBytes)
	reg, err := monitor.NewRegistry(monitor.RegistryConfig{
		Engine: engine, Datasets: datasets, ChunkStates: dataset.NewStateCache(dataset.DefaultStateBudgetBytes),
	})
	if err != nil {
		return 0, err
	}
	defer reg.Close()
	meta, err := datasets.PutAs(tenant.Default, "baseline-20k", baseline)
	if err != nil {
		return 0, err
	}

	end := r.tr.root("setup", baseline.NumRows())
	var m *monitor.Monitor
	err = r.tr.do("monitor.register", baseline.NumRows(), func() (err error) {
		m, err = reg.Register(monitor.Spec{
			Name: "bench", BaselineRef: meta.Ref, Policy: serve.DefaultPolicy(), Train: auditSpec(),
			Window:     monitor.WindowConfig{WidthMS: windowBatches * slideMS, SlideMS: slideMS},
			AuditEvery: auditEvery,
		})
		return err
	})
	if err == nil {
		_, err = runAudit(r.composite("bench/baseline", 1), "bench/baseline", baseline)
	}
	if err != nil {
		end()
		return 0, err
	}
	var scorer *monitor.ChunkScorer
	err = r.tr.do("monitor.profile", baseline.NumRows(), func() error {
		prof, err := monitor.NewBaselineProfile(baseline, monitor.DriftConfig{})
		if err != nil {
			return err
		}
		scorer, err = monitor.NewChunkScorer(prof, dataset.NewStateCache(dataset.DefaultStateBudgetBytes))
		return err
	})
	end()
	if err == nil {
		err = r.leafAudit("setup", baseline, 1)
	}
	if err != nil {
		return 0, err
	}

	var chunks []monitor.Chunk
	err = r.each(n, func(i int) error {
		body := r.in.batches[i]
		end := r.tr.root("ingest", batchRows)
		var wire monitor.IngestWire
		if err := r.tr.do("http.decode", len(body), func() error { return json.Unmarshal(body, &wire) }); err != nil {
			return err
		}
		f, err := r.readCSV(func() (*frame.Frame, error) { return frame.ReadCSVString(wire.CSV) })
		if err != nil {
			return err
		}
		err = r.tr.do("monitor.ingest", f.NumRows(), func() error {
			arrivals, err := stream.FrameArrivals(f, f.NumRows(), wire.TimeMS, 0)
			if err != nil {
				return err
			}
			return m.Ingest(arrivals...)
		})
		if err != nil {
			return err
		}
		if err := r.encode(m.Status()); err != nil {
			return err
		}
		end()

		// The component pass. Batch i closes the window of the previous
		// windowBatches batches.
		end = r.tr.root("ingest", batchRows)
		defer end()
		chunks = append(chunks, monitor.Chunk{Rows: f, Hash: r.hash(f)})
		if i < windowBatches {
			return nil
		}
		return r.tr.do("monitor.chunk_score", batchRows, func() error {
			_, err := scorer.Score(chunks[i-windowBatches : i])
			return err
		})
	})
	return n, err
}
