// Property tests pinning the dictionary-encoding contract: a
// dict-encoded String column is a pure representation change, so every
// execution path — fairness kernels, drift scoring, the incremental
// chunk scorer, and a full FACT audit — must produce bit-identical
// results on plain and dict-encoded copies of the same frame, and
// frame.Hash plus the JSON codec must be representation-blind.
//
// Frames are randomized across the edge cases the encoding has to
// survive: unicode and whitespace-differing levels, the empty-string
// level next to genuine nulls, NaN in numeric columns, and
// high-cardinality alphabets.
package rds_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/fairness"
	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/monitor"
	"github.com/responsible-data-science/rds/internal/rng"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/synth"
)

// levelAlphabet is the categorical stress alphabet: levels differing
// only by case, only by surrounding whitespace, the empty string, and
// multi-byte unicode.
var levelAlphabet = []string{
	"A", "B", "a", "b", " A", "A ", "\tB", "",
	"été", "Ünïcode", "群体-甲", "group B",
	strings.Repeat("long-level-", 4),
}

// randGroups draws n group labels from the alphabet, forcing the first
// four rows to cover protected/reference ("B"/"A") so fairness metrics
// are always defined.
func randGroups(src *rng.Source, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = levelAlphabet[src.Intn(len(levelAlphabet))]
	}
	copy(out, []string{"A", "A", "B", "B"})
	return out
}

// randBits draws n values in {0,1} with the first four rows fixed to
// {0,1,0,1} so every forced group above sees both outcomes.
func randBits(src *rng.Source, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(src.Intn(2))
	}
	copy(out, []float64{0, 1, 0, 1})
	return out
}

// bitEqual is reflect.DeepEqual strengthened to the bit-identity the
// encoding contract promises: floats compare by math.Float64bits, so
// identical NaNs are equal (DeepEqual would reject them) while -0 and
// +0 are distinct (DeepEqual would conflate them). Group metrics with
// empty denominators make NaN a routine report value, so plain
// DeepEqual cannot express "the two paths computed the same bits".
func bitEqual(a, b any) bool {
	return bitEqualValue(reflect.ValueOf(a), reflect.ValueOf(b))
}

func bitEqualValue(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitEqualValue(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && (a.IsNil() != b.IsNil()) {
			return false
		}
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitEqualValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		iter := a.MapRange()
		for iter.Next() {
			bv := b.MapIndex(iter.Key())
			if !bv.IsValid() || !bitEqualValue(iter.Value(), bv) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitEqualValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

// stringPair builds value-identical plain and dict-encoded series from
// vals, marking rows null where nullAt says so. Nulls are set on the
// plain column before interning, so the dict column carries the
// canonical null encoding (code of "", null bit set).
func stringPair(name string, vals []string, nullAt []bool) (plain, dict *frame.Series) {
	plain = frame.NewString(name, vals)
	for i, isNull := range nullAt {
		if isNull {
			plain.SetNull(i)
		}
	}
	dict = plain.Intern()
	if _, _, ok := dict.DictView(); !ok {
		panic("Intern did not dictionary-encode " + name)
	}
	return plain, dict
}

// plainCloneFrame rebuilds f with every String column converted to the
// plain representation, preserving values and nulls exactly.
func plainCloneFrame(t *testing.T, f *frame.Frame) *frame.Frame {
	t.Helper()
	cols := make([]*frame.Series, f.NumCols())
	for i := 0; i < f.NumCols(); i++ {
		c := f.ColAt(i)
		if _, _, ok := c.DictView(); !ok {
			cols[i] = c
			continue
		}
		plain := frame.NewString(c.Name(), c.Strings())
		for r := 0; r < c.Len(); r++ {
			if c.IsNull(r) {
				plain.SetNull(r)
			}
		}
		cols[i] = plain
	}
	out, err := frame.New(cols...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// dictCloneFrame rebuilds f with every plain String column interned.
func dictCloneFrame(t *testing.T, f *frame.Frame) *frame.Frame {
	t.Helper()
	cols := make([]*frame.Series, f.NumCols())
	for i := 0; i < f.NumCols(); i++ {
		cols[i] = f.ColAt(i).Intern()
	}
	out, err := frame.New(cols...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDictIdentityFairness drives randomized labels and stress-alphabet
// group columns through every fairness entry point — the string-slice
// reference path, then the plain-series and dict-series paths at
// several shard counts (0 selects GOMAXPROCS) — and demands
// bit-identical reports.
func TestDictIdentityFairness(t *testing.T) {
	src := rng.New(101)
	for trial := 0; trial < 20; trial++ {
		n := 4 + src.Intn(3000)
		y, pred := randBits(src, n), randBits(src, n)
		groups := randGroups(src, n)
		plain, dict := stringPair("group", groups, nil)

		want, err := fairness.Evaluate(y, pred, groups, "B", "A")
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range []*frame.Series{plain, dict} {
			repr := "plain"
			if _, _, ok := col.DictView(); ok {
				repr = "dict"
			}
			for _, shards := range []int{0, 1, 3, 8} {
				got, err := fairness.EvaluateSeriesSharded(y, pred, col, "B", "A", shards)
				if err != nil {
					t.Fatal(err)
				}
				if !bitEqual(want, got) {
					t.Fatalf("trial %d: EvaluateSeriesSharded(%s, shards=%d) diverged:\n%+v\nvs\n%+v", trial, repr, shards, want, got)
				}
			}
		}
	}
}

// TestDictIdentityFairnessHighCardinality repeats the fairness identity
// on a column with thousands of distinct levels, where the kernel's
// code-indexed tally arrays are largest: two of the levels are the
// protected and reference groups, so the per-code restriction mask
// spans the whole dictionary.
func TestDictIdentityFairnessHighCardinality(t *testing.T) {
	src := rng.New(211)
	const n = 20_000
	groups := make([]string, n)
	for i := range groups {
		groups[i] = fmt.Sprintf("level-%04d", src.Intn(5000))
	}
	y, pred := randBits(src, n), randBits(src, n)
	plain, dict := stringPair("group", groups, nil)
	if _, levels, ok := dict.DictView(); !ok || len(levels) < 4000 {
		t.Fatalf("expected thousands of dictionary levels, got %d", len(levels))
	}
	protected, reference := groups[0], groups[1]
	if protected == reference {
		t.Fatal("fixture drew the same level twice")
	}

	want, err := fairness.EvaluateSeriesSharded(y, pred, plain, protected, reference, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fairness.EvaluateSeriesSharded(y, pred, dict, protected, reference, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(want, got) {
		t.Fatalf("high-cardinality report diverged between plain and dict:\n%+v\nvs\n%+v", want, got)
	}
}

// randDriftFrame builds an n-row frame with one NaN-sprinkled numeric
// column and two stress-alphabet categorical columns (one carrying
// nulls), returned in plain and dict-encoded forms.
func randDriftFrame(t *testing.T, src *rng.Source, n int) (plain, dict *frame.Frame) {
	t.Helper()
	nums := make([]float64, n)
	for i := range nums {
		nums[i] = src.Normal(50, 12)
		if src.Intn(40) == 0 {
			nums[i] = math.NaN()
		}
	}
	cats := randGroups(src, n)
	cats2 := make([]string, n)
	nullAt := make([]bool, n)
	for i := range cats2 {
		cats2[i] = levelAlphabet[src.Intn(len(levelAlphabet))]
		nullAt[i] = src.Intn(25) == 0
	}
	num := frame.NewFloat64("score", nums)
	catPlain, catDict := stringPair("segment", cats, nil)
	cat2Plain, cat2Dict := stringPair("region", cats2, nullAt)
	p, err := frame.New(num, catPlain, cat2Plain)
	if err != nil {
		t.Fatal(err)
	}
	d, err := frame.New(num, catDict, cat2Dict)
	if err != nil {
		t.Fatal(err)
	}
	return p, d
}

// TestDictIdentityDrift checks DetectDrift and the profiled path return
// bit-identical reports for plain and dict frames in every
// baseline/current representation pairing, including vanishing and
// novel levels between the two samples.
func TestDictIdentityDrift(t *testing.T) {
	src := rng.New(307)
	for trial := 0; trial < 8; trial++ {
		basePlain, baseDict := randDriftFrame(t, src, 500+src.Intn(2000))
		curPlain, curDict := randDriftFrame(t, src, 200+src.Intn(1000))
		cfg := monitor.DriftConfig{}
		want, err := monitor.DetectDrift(basePlain, curPlain, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range []struct {
			name      string
			base, cur *frame.Frame
		}{
			{"dict/dict", baseDict, curDict},
			{"dict/plain", baseDict, curPlain},
			{"plain/dict", basePlain, curDict},
		} {
			got, err := monitor.DetectDrift(pair.base, pair.cur, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bitEqual(want, got) {
				t.Fatalf("trial %d: DetectDrift(%s) diverged from plain/plain", trial, pair.name)
			}
		}
		profPlain, err := monitor.NewBaselineProfile(basePlain, cfg)
		if err != nil {
			t.Fatal(err)
		}
		profDict, err := monitor.NewBaselineProfile(baseDict, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantProf, err := monitor.DetectDriftProfiled(profPlain, curPlain)
		if err != nil {
			t.Fatal(err)
		}
		gotProf, err := monitor.DetectDriftProfiled(profDict, curDict)
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqual(wantProf, gotProf) {
			t.Fatalf("trial %d: DetectDriftProfiled diverged between representations", trial)
		}
	}
}

// TestDictIdentityChunkScorer runs the incremental chunk scorer over
// plain and dict-encoded chunkings of the same stream and demands
// bit-identical drift reports — and both must equal the
// non-incremental profiled rescan of the materialized window.
func TestDictIdentityChunkScorer(t *testing.T) {
	src := rng.New(409)
	const chunkRows, chunks = 400, 6
	basePlain, _ := randDriftFrame(t, src, 2500)
	prof, err := monitor.NewBaselineProfile(basePlain, monitor.DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	streamPlain, streamDict := randDriftFrame(t, src, chunkRows*chunks)
	chunksOf := func(f *frame.Frame) []monitor.Chunk {
		out := make([]monitor.Chunk, chunks)
		for i := range out {
			rows := f.Slice(i*chunkRows, (i+1)*chunkRows)
			out[i] = monitor.Chunk{Rows: rows, Hash: rows.Hash()}
		}
		return out
	}
	plainChunks, dictChunks := chunksOf(streamPlain), chunksOf(streamDict)
	for i := range plainChunks {
		if plainChunks[i].Hash != dictChunks[i].Hash {
			t.Fatalf("chunk %d hash differs between representations", i)
		}
	}
	score := func(cs []monitor.Chunk) *monitor.DriftReport {
		sc, err := monitor.NewChunkScorer(prof, dataset.NewStateCache(dataset.DefaultStateBudgetBytes))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sc.Score(cs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want, got := score(plainChunks), score(dictChunks)
	if !bitEqual(want, got) {
		t.Fatal("ChunkScorer reports diverged between plain and dict chunks")
	}
	rescan, err := monitor.DetectDriftProfiled(prof, streamDict)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(want, rescan) {
		t.Fatalf("incremental report diverged from rescan:\n%+v\nvs\n%+v", want, rescan)
	}
}

// TestDictIdentityPipelineAudit runs the full Train+Audit pipeline on
// the dict-encoded synthetic credit dataset and on a plain-string clone
// and demands bit-identity on the complete FACT reports.
func TestDictIdentityPipelineAudit(t *testing.T) {
	data, err := synth.Credit(synth.CreditConfig{N: 4000, Bias: 1.0, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := data.MustCol("group").DictView(); !ok {
		t.Fatal("synth group column should arrive dictionary-encoded")
	}
	plain := plainCloneFrame(t, data)
	if plain.Hash() != data.Hash() {
		t.Fatal("plain clone changed the frame hash")
	}
	audit := func(f *frame.Frame) *core.FACTReport {
		p, err := core.New(core.Config{Name: "credit", Policy: serve.DefaultPolicy(), Seed: 7, Actor: "test"})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Load("credit", f); err != nil {
			t.Fatal(err)
		}
		tm, err := p.Train(core.TrainSpec{
			Target: "approved", Sensitive: "group",
			Protected: "B", Reference: "A", Epochs: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Audit(tm)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want, got := audit(plain), audit(data)
	if !bitEqual(want, got) {
		t.Fatalf("FACT report diverged between representations:\n%+v\nvs\n%+v", want, got)
	}
}

// TestDictIdentityHashAndCodec checks representation-blind hashing and
// codec round-trips on randomized frames: plain and interned copies
// hash identically, WriteJSON/ReadJSON preserves Hash, values, and the
// dictionary representation, and a dictionary level that is not valid
// UTF-8 survives through the base64 escape path.
func TestDictIdentityHashAndCodec(t *testing.T) {
	src := rng.New(503)
	roundTrip := func(f *frame.Frame) *frame.Frame {
		var buf bytes.Buffer
		if err := f.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := frame.ReadJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return back
	}
	for trial := 0; trial < 10; trial++ {
		plain, dict := randDriftFrame(t, src, 50+src.Intn(500))
		if plain.Hash() != dict.Hash() {
			t.Fatalf("trial %d: interning changed the frame hash", trial)
		}
		if !plain.Equal(dict) {
			t.Fatalf("trial %d: interning changed frame values", trial)
		}
		back := roundTrip(dict)
		if back.Hash() != dict.Hash() {
			t.Fatalf("trial %d: codec round-trip changed the hash", trial)
		}
		if !back.Equal(dict) {
			t.Fatalf("trial %d: codec round-trip changed values", trial)
		}
		for i := 0; i < back.NumCols(); i++ {
			before, after := back.ColAt(i), dict.ColAt(i)
			_, _, wantDict := after.DictView()
			_, _, gotDict := before.DictView()
			if wantDict != gotDict {
				t.Fatalf("trial %d: column %q representation not preserved (dict=%v -> %v)",
					trial, after.Name(), wantDict, gotDict)
			}
		}
		// Re-interning the plain round-trip must land on the same hash too.
		if got := dictCloneFrame(t, roundTrip(plain)).Hash(); got != plain.Hash() {
			t.Fatalf("trial %d: re-interned round-trip hash diverged", trial)
		}
	}

	// Invalid UTF-8 dictionary level: forces the codec's base64 escape.
	codes := []int32{0, 1, 2, 1, 0}
	dict := []string{"ok", "\xff\xfe-binary", ""}
	col, err := frame.NewStringDict("raw", codes, dict)
	if err != nil {
		t.Fatal(err)
	}
	f, err := frame.New(col)
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(f)
	if back.Hash() != f.Hash() || !back.Equal(f) {
		t.Fatal("invalid-UTF-8 dictionary level did not survive the codec round-trip")
	}
	if _, _, ok := back.MustCol("raw").DictView(); !ok {
		t.Fatal("invalid-UTF-8 column came back plain")
	}
}
