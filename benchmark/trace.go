package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/explain"
	"github.com/responsible-data-science/rds/internal/fairness"
	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/ml"
	"github.com/responsible-data-science/rds/internal/provenance"
	"github.com/responsible-data-science/rds/internal/rng"
)

// span is one timed call into a layer. Spans of one replayed operation
// (one pass over it) share a trace id; parent is the enclosing span's
// id, 0 for the operation's root.
type span struct {
	Trace   int    `json:"trace"`
	Span    int    `json:"span"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Rows    int    `json:"rows"`
}

// tracer records spans in memory from a single goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	trace int
	open  []int // indexes of the spans enclosing the next one
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root starts a new trace whose root span is name; call the returned
// function to end it.
func (t *tracer) root(name string, rows int) func() {
	t.trace++
	t.open = t.open[:0]
	return t.start(name, rows)
}

// start opens a span under the innermost open one.
func (t *tracer) start(name string, rows int) func() {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].Span
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{
		Trace: t.trace, Span: idx + 1, Parent: parent, Name: name, Rows: rows,
		StartNS: int64(time.Since(t.t0)),
	})
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].EndNS = int64(time.Since(t.t0))
		t.open = t.open[:len(t.open)-1]
	}
}

// do runs fn inside a span.
func (t *tracer) do(name string, rows int, fn func() error) error {
	end := t.start(name, rows)
	defer end()
	return fn()
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Count  int
	Rows   int
	SelfNS int64 // duration minus the part child spans cover
}

// layers aggregates self time, call count and rows by span name.
func (t *tracer) layers() map[string]*layerStat {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		d := s.EndNS - s.StartNS
		self[i] += d
		if s.Parent > 0 {
			self[s.Parent-1] -= d
		}
	}
	out := map[string]*layerStat{}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.Count++
		st.Rows += s.Rows
		st.SelfNS += self[i]
	}
	return out
}

// writeJSONL writes every span as one JSON line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printLayers writes the per-layer self-time table, largest first.
func printLayers(w io.Writer, stats map[string]*layerStat, ops int) {
	names := make([]string, 0, len(stats))
	var total int64
	for name, st := range stats {
		names = append(names, name)
		total += st.SelfNS
	}
	sort.Slice(names, func(i, j int) bool { return stats[names[i]].SelfNS > stats[names[j]].SelfNS })
	fmt.Fprintf(w, "%-26s %8s %12s %12s %7s\n", "span", "calls", "self ms", "self ms/op", "share")
	for _, name := range names {
		st := stats[name]
		selfMS := float64(st.SelfNS) / 1e6
		fmt.Fprintf(w, "%-26s %8d %12.1f %12.3f %6.1f%%\n", name, st.Count, selfMS, selfMS/float64(ops), 100*float64(st.SelfNS)/float64(total))
	}
}

// pass replays the steps of a core.Pipeline. The composite pass spans
// each core call; the leaf pass makes the calls those make, spanning
// each leaf, so the two can be reconciled.
type pass interface {
	load(name string, f *frame.Frame) error
	train(spec core.TrainSpec) error
	// audit returns the report (nil from the leaf pass).
	audit() (*core.FACTReport, error)
}

// compositePass spans core.New+Load, Train and Audit.
type compositePass struct {
	tr    *tracer
	cfg   core.Config
	pipe  *core.Pipeline
	model *core.TrainedModel
}

func (c *compositePass) load(name string, f *frame.Frame) error {
	return c.tr.do("core.load", f.NumRows(), func() error {
		pipe, err := core.New(c.cfg)
		if err != nil {
			return err
		}
		c.pipe = pipe
		return pipe.Load(name, f)
	})
}

func (c *compositePass) train(spec core.TrainSpec) error {
	return c.tr.do("core.train", c.pipe.Frame().NumRows(), func() (err error) {
		c.model, err = c.pipe.Train(spec)
		return err
	})
}

func (c *compositePass) audit() (rep *core.FACTReport, err error) {
	err = c.tr.do("core.audit", c.model.Test.N(), func() error {
		rep, err = c.pipe.Audit(c.model)
		return err
	})
	return rep, err
}

// leafPass mirrors, call for call, what core.Pipeline's Load, Train
// (without mitigation, as the workloads train) and Audit (under the
// default policy) do.
type leafPass struct {
	tr     *tracer
	seed   uint64
	shards int

	src    *rng.Source
	data   *frame.Frame
	spec   core.TrainSpec
	model  ml.Classifier
	test   *ml.Dataset
	preds  []float64
	groups *frame.Series
}

func (l *leafPass) load(_ string, f *frame.Frame) error {
	l.src = rng.New(l.seed)
	l.data = f
	return l.hashFrame(f)
}

func (l *leafPass) hashFrame(f *frame.Frame) error {
	return l.tr.do("provenance.hash_frame", f.NumRows(), func() error {
		_, err := provenance.HashFrame(f)
		return err
	})
}

func (l *leafPass) train(spec core.TrainSpec) error {
	if spec.TestFraction == 0 {
		spec.TestFraction = 0.3
	}
	if spec.Epochs <= 0 {
		spec.Epochs = 40
	}
	exclude := append([]string{spec.Sensitive}, spec.Exclude...)
	var ds *ml.Dataset
	err := l.tr.do("ml.from_frame", l.data.NumRows(), func() (err error) {
		ds, err = ml.FromFrame(l.data, spec.Target, exclude...)
		return err
	})
	if err != nil {
		return err
	}
	evalCol, err := l.data.Col(spec.Sensitive)
	if err != nil {
		return err
	}
	perm := l.src.Perm(ds.N())
	nTest := int(float64(ds.N()) * spec.TestFraction)
	testIdx, trainIdx := perm[:nTest], perm[nTest:]
	var trainSet, testSet *ml.Dataset
	_ = l.tr.do("ml.subset", ds.N(), func() error {
		trainSet, testSet = ds.Subset(trainIdx), ds.Subset(testIdx)
		return nil
	})
	err = l.tr.do("ml.train_logistic", trainSet.N(), func() (err error) {
		l.model, err = ml.TrainLogistic(trainSet, ml.LogisticConfig{Epochs: spec.Epochs, Seed: l.seed})
		return err
	})
	if err != nil {
		return err
	}
	_ = l.tr.do("ml.predict", testSet.N(), func() error {
		ml.PredictProbaAll(l.model, testSet.X)
		l.preds = ml.PredictAll(l.model, testSet.X)
		return nil
	})
	l.spec, l.test, l.groups = spec, testSet, evalCol.Take(testIdx)
	return nil
}

func (l *leafPass) audit() (*core.FACTReport, error) {
	err := l.tr.do("fairness.evaluate", l.test.N(), func() error {
		_, err := fairness.EvaluateSeriesSharded(l.test.Y, l.preds, l.groups, l.spec.Protected, l.spec.Reference, l.shards)
		return err
	})
	if err != nil {
		return nil, err
	}
	return nil, l.tr.do("explain.fit_surrogate", l.test.N(), func() error {
		_, err := explain.FitSurrogate(l.model, l.test, 4)
		return err
	})
}
