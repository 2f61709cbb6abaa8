package monitor

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/stream"
)

// mapColumn returns f with column col's values transformed in place —
// column order and dtypes preserved, so parts sliced from the original
// and the mutated frame still share a window schema (unlike
// Drop+WithColumn, which moves the column to the end).
func mapColumn(t testing.TB, f *frame.Frame, col string, fn func(float64) float64) *frame.Frame {
	t.Helper()
	cols := make([]*frame.Series, 0, f.NumCols())
	for j := 0; j < f.NumCols(); j++ {
		c := f.ColAt(j)
		if c.Name() == col {
			c = c.Map(col, fn)
		}
		cols = append(cols, c)
	}
	out, err := frame.New(cols...)
	if err != nil {
		t.Fatalf("mapColumn(%s): %v", col, err)
	}
	return out
}

// stringifyColumn returns f with column col re-typed as strings in
// place — the type-drift edge Score must refuse exactly like the
// rescan.
func stringifyColumn(t testing.TB, f *frame.Frame, col string) *frame.Frame {
	t.Helper()
	vals := f.MustCol(col).Floats()
	ss := make([]string, len(vals))
	for i, v := range vals {
		ss[i] = fmt.Sprintf("%g", v)
	}
	cols := make([]*frame.Series, 0, f.NumCols())
	for j := 0; j < f.NumCols(); j++ {
		c := f.ColAt(j)
		if c.Name() == col {
			c = frame.NewString(col, ss)
		}
		cols = append(cols, c)
	}
	out, err := frame.New(cols...)
	if err != nil {
		t.Fatalf("stringifyColumn(%s): %v", col, err)
	}
	return out
}

// bitsDeepEqual compares two values structurally with floats compared
// by bit pattern, so NaN == NaN and -0.0 != 0.0 — the bit-identity the
// incremental≡rescan property demands, which reflect.DeepEqual (NaN !=
// NaN) and JSON round-trips (NaN unmarshalable) cannot express.
func bitsDeepEqual(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Ptr, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitsDeepEqual(a.Elem(), b.Elem())
	case reflect.Struct:
		if a.Type() != b.Type() {
			return false
		}
		for i := 0; i < a.NumField(); i++ {
			if !bitsDeepEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsDeepEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() || a.IsNil() != b.IsNil() {
			return false
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() || !bitsDeepEqual(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

// normalizeEntries zeroes the wall-clock fields so two runs of the same
// stream compare bit-identically.
func normalizeEntries(es []WindowEntry) []WindowEntry {
	out := append([]WindowEntry(nil), es...)
	for i := range out {
		out[i].DriftMillis = 0
	}
	return out
}

// mustEqualHistories fails unless the two histories are bit-identical
// after normalization.
func mustEqualHistories(t *testing.T, label string, got, want []WindowEntry) {
	t.Helper()
	got, want = normalizeEntries(got), normalizeEntries(want)
	if len(got) != len(want) {
		t.Fatalf("%s: history len %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !bitsDeepEqual(reflect.ValueOf(got[i]), reflect.ValueOf(want[i])) {
			t.Fatalf("%s: history[%d] diverged:\n  got:  %+v\n  want: %+v", label, i, got[i], want[i])
		}
	}
}

// randomArrivals builds a deterministic pseudo-random arrival stream
// exercising the windower's edge cases: empty batches, heartbeats,
// single-row chunks, NaN/Inf cells, all-NaN columns, dropped columns,
// type drift, and genuine distribution drift that forces off-cadence
// audits.
func randomArrivals(t testing.TB, seed int64, n int) []stream.Arrival {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pool := creditFrame(t, 2000, 0, 0.35, uint64(seed)+1)
	drifted := mapColumn(t, pool, "income", func(v float64) float64 { return v*3 + 40 })
	withNaN := mapColumn(t, pool, "income", func(v float64) float64 {
		if math.Mod(v, 7) < 2 {
			return math.NaN()
		}
		return v
	})
	withInf := mapColumn(t, pool, "debt_ratio", func(v float64) float64 {
		if v > 0.5 {
			return math.Inf(1)
		}
		return v
	})
	allNaN := mapColumn(t, pool, "income", func(float64) float64 { return math.NaN() })
	typed := stringifyColumn(t, pool, "income")
	dropped, err := pool.Drop("employment_years")
	if err != nil {
		t.Fatalf("Drop: %v", err)
	}

	slice := func(f *frame.Frame, maxRows int) *frame.Frame {
		rows := 1 + rng.Intn(maxRows)
		lo := rng.Intn(f.NumRows() - rows + 1)
		return f.Slice(lo, lo+rows)
	}
	arrivals := make([]stream.Arrival, 0, n)
	// The first window ([0,100) for every spec under test) gets clean
	// parts only, so the baseline always pins and later windows are
	// genuinely drift-scored instead of the whole stream skipping.
	for _, tms := range []int64{0, 40, 80} {
		arrivals = append(arrivals, stream.Arrival{TimeMS: tms, Rows: slice(pool, 150)})
	}
	tms := int64(100)
	for len(arrivals) < n {
		tms += int64(rng.Intn(30))
		var rows *frame.Frame
		switch rng.Intn(14) {
		case 0:
			// Heartbeat: watermark only.
		case 1:
			rows = pool.Slice(0, 0) // empty batch
		case 2:
			rows = slice(pool, 1) // single-row chunk
		case 3:
			rows = slice(withNaN, 120)
		case 4:
			rows = slice(withInf, 120)
		case 5:
			rows = slice(allNaN, 60)
		case 6:
			rows = slice(dropped, 120) // schema edge: mixed windows must skip
		case 7:
			rows = slice(typed, 80) // type drift: numeric became string
		case 8, 9:
			rows = slice(drifted, 120) // drift breach forces off-cadence audits
		default:
			rows = slice(pool, 150)
		}
		arrivals = append(arrivals, stream.Arrival{TimeMS: tms, Rows: rows})
	}
	return arrivals
}

// runMonitor feeds one deterministic arrival stream through a fresh
// registry+monitor (with or without a chunk-state cache), flushes it,
// and returns the monitor.
func runMonitor(t *testing.T, spec Spec, cache *dataset.StateCache, arrivals []stream.Arrival) *Monitor {
	t.Helper()
	r, err := NewRegistry(RegistryConfig{Engine: newTestEngine(t), ChunkStates: cache})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	t.Cleanup(r.Close)
	m, err := r.Register(spec)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := m.Ingest(arrivals...); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	m.Flush()
	return m
}

// runArrivals is runMonitor returning the full history, the final
// summary and the registry's gauges.
func runArrivals(t *testing.T, spec Spec, cache *dataset.StateCache, arrivals []stream.Arrival) ([]WindowEntry, Summary, MetricsSnapshot) {
	t.Helper()
	m := runMonitor(t, spec, cache, arrivals)
	return m.History(), m.Status(), m.reg.Metrics()
}

// mustMatchRescan is the incremental≡rescan oracle at the monitor
// level: every stream-driven entry of m's history that carries a drift
// report or a drift error must equal DetectDriftProfiled against m's
// pinned profile over the window's rows, rebuilt from the arrivals in
// [StartMS, EndMS) — the report bit for bit, the error string for
// string. The arrivals must be time-ordered, so no row is late. It
// returns how many entries it checked.
func mustMatchRescan(t *testing.T, label string, m *Monitor, arrivals []stream.Arrival) int {
	t.Helper()
	checked := 0
	for _, e := range m.History() {
		if e.Baseline || e.Skipped || e.Reaudits > 0 {
			continue
		}
		var parts []*frame.Frame
		for _, a := range arrivals {
			if a.TimeMS >= e.StartMS && a.TimeMS < e.EndMS && a.Rows != nil && a.Rows.NumRows() > 0 {
				parts = append(parts, a.Rows)
			}
		}
		if len(parts) == 0 {
			t.Fatalf("%s: window %d was scored but no arrival falls in [%d, %d)", label, e.Window, e.StartMS, e.EndMS)
		}
		rows, err := parts[0].Append(parts[1:]...)
		if err != nil {
			t.Fatalf("%s: window %d was scored but its rows do not concatenate: %v", label, e.Window, err)
		}
		if rows.NumRows() != e.Rows {
			t.Fatalf("%s: window %d rebuilt with %d rows, entry has %d", label, e.Window, rows.NumRows(), e.Rows)
		}
		want, werr := DetectDriftProfiled(m.profile, rows)
		switch {
		case werr != nil:
			if e.Drift != nil || e.Error != werr.Error() {
				t.Errorf("%s: window %d: drift %+v, error %q; the rescan refuses it with %q", label, e.Window, e.Drift, e.Error, werr)
			}
		case !bitsDeepEqual(reflect.ValueOf(e.Drift), reflect.ValueOf(want)):
			t.Errorf("%s: window %d drift diverged from the rescan:\n  got:  %+v\n  want: %+v", label, e.Window, e.Drift, want)
		}
		checked++
	}
	return checked
}

// TestIncrementalEqualsRescanRandomized is the chunk-state property
// test: for randomized frames (NaN/Inf cells, schema and size edges),
// random window shapes, and any shard count, every drift report and
// drift error a monitor records equals DetectDriftProfiled over the
// materialized window, and a monitor reusing chunk states from a cache
// produces a history bit-identical to one rebuilding every state —
// FACT reports, drift scores, skip decisions, and error strings
// included. The shard count is GOMAXPROCS, which is process-wide, so
// the cases run sequentially.
func TestIncrementalEqualsRescanRandomized(t *testing.T) {
	shards := []int{1, 3, 8}
	slides := []int64{100, 40, 25}
	for si, shard := range shards {
		for wi, slide := range slides {
			shard, slide := shard, slide
			name := fmt.Sprintf("shards=%d/slide=%d", shard, slide)
			seed := int64(101 + 17*si + 31*wi)
			t.Run(name, func(t *testing.T) {
				setGOMAXPROCS(t, shard)
				arrivals := randomArrivals(t, seed, 70)
				spec := creditSpec("prop")
				spec.Window = WindowConfig{WidthMS: 100, SlideMS: slide}
				spec.AuditEvery = 2
				spec.History = 1024

				cache := dataset.NewStateCache(1 << 20)
				m := runMonitor(t, spec, cache, arrivals)
				gotHist, gotSum := m.History(), m.Status()
				wantHist, wantSum, _ := runArrivals(t, spec, nil, arrivals)

				if n := mustMatchRescan(t, name, m, arrivals); n == 0 {
					t.Errorf("no entry was checked against the rescan")
				}
				mustEqualHistories(t, name, gotHist, wantHist)
				gotSum.ProfileBuildMillis, wantSum.ProfileBuildMillis = 0, 0
				if !bitsDeepEqual(reflect.ValueOf(gotSum), reflect.ValueOf(wantSum)) {
					t.Errorf("summaries diverged:\n  got:  %+v\n  want: %+v", gotSum, wantSum)
				}

				// Guard against a vacuous pass: the stream must exercise
				// drift scoring and audits, and sliding windows must
				// actually hit the cache (shared chunks re-merged).
				var scored, audited bool
				for _, e := range gotHist {
					scored = scored || e.Drift != nil
					audited = audited || e.Audited
				}
				if !scored || !audited {
					t.Errorf("stream too quiet: scored=%v audited=%v", scored, audited)
				}
				if snap := cache.Metrics(); slide < 100 && snap.Hits == 0 {
					t.Errorf("sliding run never hit the chunk-state cache: %+v", snap)
				}
			})
		}
	}
}

// TestChunkScorerMatchesProfiledDetect pins the scorer directly against
// DetectDriftProfiled: for every current-frame shape — clean, drifted,
// NaN-laced, all-NaN, column dropped — and every chunk split, Score
// over the chunks is bit-identical to the rescan over their
// concatenation; error conditions reproduce the legacy error strings.
func TestChunkScorerMatchesProfiledDetect(t *testing.T) {
	baseline := creditFrame(t, 3000, 0, 0.35, 1)
	cfg := DriftConfig{}.withDefaults()
	prof, err := NewBaselineProfile(baseline, cfg)
	if err != nil {
		t.Fatalf("NewBaselineProfile: %v", err)
	}
	dropped, err := creditFrame(t, 900, 0, 0.35, 7).Drop("income", "neighborhood")
	if err != nil {
		t.Fatalf("Drop: %v", err)
	}
	currents := map[string]*frame.Frame{
		"clean":   creditFrame(t, 900, 0, 0.35, 2),
		"drifted": scaleColumn(t, creditFrame(t, 900, 0, 0.35, 3), "income", 4),
		"nan":     mapColumn(t, creditFrame(t, 900, 0, 0.35, 4), "income", func(v float64) float64 { return math.NaN() * 0 * v }),
		"all-nan": mapColumn(t, creditFrame(t, 900, 0, 0.35, 5), "income", func(float64) float64 { return math.NaN() }),
		"inf":     mapColumn(t, creditFrame(t, 900, 0, 0.35, 6), "debt_ratio", func(v float64) float64 { return math.Inf(1) * v }),
		"dropped": dropped,
		"tiny":    creditFrame(t, 900, 0, 0.35, 8).Slice(0, 1),
	}
	splits := []int{1, 2, 5}
	for name, cur := range currents {
		for _, parts := range splits {
			if cur.NumRows() < parts {
				continue
			}
			label := fmt.Sprintf("%s/parts=%d", name, parts)
			cache := dataset.NewStateCache(8 << 20)
			sc, err := NewChunkScorer(prof, cache)
			if err != nil {
				t.Fatalf("%s: NewChunkScorer: %v", label, err)
			}
			chunks := splitChunks(cur, parts)
			got, gerr := sc.Score(chunks)
			want, werr := DetectDriftProfiled(prof, cur)
			if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("%s: error mismatch: %v vs %v", label, gerr, werr)
			}
			if !bitsDeepEqual(reflect.ValueOf(got), reflect.ValueOf(want)) {
				t.Errorf("%s: Score diverged from DetectDriftProfiled:\n  got:  %+v\n  want: %+v", label, got, want)
			}
			// Second pass answers from cache and must stay bit-identical.
			again, aerr := sc.Score(chunks)
			if aerr != nil {
				t.Fatalf("%s: cached Score: %v", label, aerr)
			}
			if !bitsDeepEqual(reflect.ValueOf(again), reflect.ValueOf(got)) {
				t.Errorf("%s: cached Score diverged from first Score", label)
			}
			if snap := cache.Metrics(); snap.Hits == 0 {
				t.Errorf("%s: second Score never hit the cache: %+v", label, snap)
			}
		}
	}
}

// TestChunkScorerTypeDriftParity pins the type-drift error string to
// the rescan's, so a monitor records the same error either way.
func TestChunkScorerTypeDriftParity(t *testing.T) {
	baseline := creditFrame(t, 1000, 0, 0.35, 1)
	prof, err := NewBaselineProfile(baseline, DriftConfig{}.withDefaults())
	if err != nil {
		t.Fatalf("NewBaselineProfile: %v", err)
	}
	sc, err := NewChunkScorer(prof, nil)
	if err != nil {
		t.Fatalf("NewChunkScorer: %v", err)
	}
	cur := stringifyColumn(t, creditFrame(t, 400, 0, 0.35, 2), "income")
	_, gerr := sc.Score(splitChunks(cur, 3))
	_, werr := DetectDriftProfiled(prof, cur)
	if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
		t.Fatalf("type-drift errors diverged: %v vs %v", gerr, werr)
	}
	if _, err := sc.Score(nil); err == nil {
		t.Error("Score(nil) accepted an empty window")
	}
	if _, err := NewChunkScorer(nil, nil); err == nil {
		t.Error("NewChunkScorer(nil) accepted a nil profile")
	}
}

// TestScoreRefusalsRecorded: Score refuses exactly the windows a
// materialized rescan refuses, and the monitor records them the same
// with or without a chunk-state cache. A window mixing two
// schemas is skipped with the materialization error; a window whose
// profiled income column arrives as strings records the dtype error;
// a clean sliding stream hits the cache.
func TestScoreRefusalsRecorded(t *testing.T) {
	pool := creditFrame(t, 2000, 0, 0.35, 3)
	dropped, err := pool.Drop("employment_years")
	if err != nil {
		t.Fatalf("Drop: %v", err)
	}
	typed := stringifyColumn(t, pool, "income")

	// Tumbling 100 ms windows: a clean baseline, a window mixing two
	// schemas, a window whose income column arrives as strings, and a
	// clean window.
	spec := creditSpec("refusals")
	spec.AuditEvery = 100
	faulty := []stream.Arrival{
		{TimeMS: 0, Rows: pool.Slice(0, 300)},
		{TimeMS: 100, Rows: pool.Slice(300, 500)},
		{TimeMS: 150, Rows: dropped.Slice(500, 700)},
		{TimeMS: 200, Rows: typed.Slice(700, 1000)},
		{TimeMS: 300, Rows: pool.Slice(1000, 1300)},
	}
	m := runMonitor(t, spec, dataset.NewStateCache(1<<20), faulty)
	got := m.History()
	want, _, _ := runArrivals(t, spec, nil, faulty)
	mustEqualHistories(t, "faulty stream", got, want)
	if n := mustMatchRescan(t, "faulty stream", m, faulty); n != 2 {
		t.Errorf("checked %d entries against the rescan, want 2 (dtype flip + clean)", n)
	}
	if len(got) != 4 {
		t.Fatalf("history has %d entries, want 4: %+v", len(got), got)
	}
	const (
		schemaErr = "monitor: materializing window 1: frame: Append schema mismatch: 7 vs 6 columns"
		dtypeErr  = `monitor: drift: column "income" changed type float64 -> string since the baseline`
	)
	if e := got[1]; !e.Skipped || e.Drift != nil || e.Error != schemaErr {
		t.Errorf("schema-mixing window = %+v, want skipped with %q", e, schemaErr)
	}
	if e := got[2]; e.Skipped || e.Drift != nil || e.Error != dtypeErr {
		t.Errorf("dtype-flipped window = %+v, want error %q", e, dtypeErr)
	}
	if e := got[3]; e.Drift == nil || e.Error != "" {
		t.Errorf("clean window = %+v, want a drift report", e)
	}

	// A clean sliding stream reuses the surviving chunks' states.
	spec = creditSpec("clean")
	spec.Window = WindowConfig{WidthMS: 100, SlideMS: 25}
	spec.AuditEvery = 100
	var clean []stream.Arrival
	for i := 0; i < 12; i++ {
		clean = append(clean, stream.Arrival{TimeMS: int64(25 * i), Rows: pool.Slice(100*i, 100*i+100)})
	}
	cache := dataset.NewStateCache(1 << 20)
	hist, _, snap := runArrivals(t, spec, cache, clean)
	if snap.DriftWindows == 0 || cache.Metrics().Hits == 0 {
		t.Fatalf("clean stream never reused a chunk state: %+v, history %d entries", snap, len(hist))
	}
}

// splitChunks cuts f into n contiguous hashed chunks.
func splitChunks(f *frame.Frame, n int) []Chunk {
	out := make([]Chunk, 0, n)
	rows := f.NumRows()
	for i := 0; i < n; i++ {
		lo, hi := i*rows/n, (i+1)*rows/n
		if lo == hi {
			continue
		}
		part := f.Slice(lo, hi)
		out = append(out, Chunk{Rows: part, Hash: part.Hash()})
	}
	return out
}

// TestChunkCacheEvictionChurn is the eviction regression test: a
// chunk-state cache far too small for the working set, hammered by
// concurrent ingest, re-audits, and metric reads (the -race suite runs
// this interleaved), must keep every monitor's stream-driven history
// bit-identical to a no-cache reference — a miss rebuilds the chunk's
// state, never a wrong or failed audit — and every re-audit must
// equal a reference audit of the window it re-graded.
func TestChunkCacheEvictionChurn(t *testing.T) {
	const monitors = 2
	cache := dataset.NewStateCache(24 << 10) // a handful of chunk states; constant eviction
	r, err := NewRegistry(RegistryConfig{Engine: newTestEngine(t), ChunkStates: cache})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	t.Cleanup(r.Close)

	specFor := func(i int) Spec {
		spec := creditSpec(fmt.Sprintf("churn-%d", i))
		spec.Window = WindowConfig{WidthMS: 100, SlideMS: 50}
		spec.AuditEvery = 3
		spec.History = 1024
		return spec
	}
	streams := make([][]stream.Arrival, monitors)
	for i := range streams {
		streams[i] = randomArrivals(t, int64(900+i), 50)
	}

	// Reference histories: same streams and monitor names (the name is
	// baked into each FACT report), no cache, in a separate registry,
	// sequentially.
	want := make([][]WindowEntry, monitors)
	for i := range streams {
		want[i], _, _ = runArrivals(t, specFor(i), nil, streams[i])
	}

	ms := make([]*Monitor, monitors)
	for i := range ms {
		if ms[i], err = r.Register(specFor(i)); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	var wg sync.WaitGroup
	for i, m := range ms {
		wg.Add(1)
		go func(m *Monitor, arrivals []stream.Arrival) {
			defer wg.Done()
			for _, a := range arrivals {
				if err := m.Ingest(a); err != nil {
					t.Errorf("Ingest: %v", err)
				}
			}
			m.Flush()
		}(m, streams[i])
	}
	// Concurrent re-audits and metric reads churn the cache and the
	// read-side locks while windows close.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			ms[i%monitors].Reaudit(false)
			_ = r.Metrics()
			_ = cache.Metrics()
		}
	}()
	wg.Wait()

	for i, m := range ms {
		// Reaudit entries interleave nondeterministically with window
		// entries; stream-driven grading (Reaudits == 0) must match the
		// reference exactly.
		var got, reaudits []WindowEntry
		for _, e := range m.History() {
			if e.Reaudits == 0 {
				got = append(got, e)
			} else {
				reaudits = append(reaudits, e)
			}
		}
		mustEqualHistories(t, fmt.Sprintf("monitor %d", i), got, want[i])
		mustEqualReaudits(t, fmt.Sprintf("monitor %d", i), m, streams[i], reaudits)
	}
	if snap := cache.Metrics(); snap.Evictions == 0 {
		t.Errorf("churn never evicted: %+v", snap)
	} else if snap.Bytes > snap.BudgetBytes {
		t.Errorf("resident bytes %d exceed budget %d", snap.Bytes, snap.BudgetBytes)
	}
}

// mustEqualReaudits fails unless each re-audit entry equals a reference
// audit of the window it re-graded, report bits and error string
// included. The window frames come from replaying the stream through
// the monitor's windower; a window holding the stream's NaN/Inf rows
// must fail the same way under churn as in the reference. Regressed is
// cleared on both sides: it compares against whichever audit finished
// before, which the interleaving decides.
func mustEqualReaudits(t *testing.T, label string, m *Monitor, arrivals []stream.Arrival, got []WindowEntry) {
	t.Helper()
	windows := map[int64][]Chunk{}
	win := newWindower(m.spec.Window)
	for _, a := range arrivals {
		for _, w := range win.observe(a) {
			windows[w.index] = w.chunks()
		}
	}
	for _, w := range win.flush() {
		windows[w.index] = w.chunks()
	}
	ref, err := NewRegistry(RegistryConfig{Engine: newTestEngine(t)})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	t.Cleanup(ref.Close)
	oracle, err := ref.Register(m.Spec())
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	for _, e := range got {
		chunks, ok := windows[e.Window]
		if !ok {
			t.Fatalf("%s: re-audit of window %d, which the stream never closed", label, e.Window)
		}
		f, err := materializeChunks(chunks, e.Window)
		if err != nil || f == nil {
			t.Fatalf("%s: re-audited window %d does not materialize: %v", label, e.Window, err)
		}
		want := WindowEntry{Window: e.Window, StartMS: e.StartMS, EndMS: e.EndMS, Rows: f.NumRows(), Reaudits: 1}
		oracle.audit(f, &want, windowDataHash(chunks))
		e.Regressed, want.Regressed = false, false
		if !bitsDeepEqual(reflect.ValueOf(e), reflect.ValueOf(want)) {
			t.Errorf("%s: re-audit of window %d diverged from its reference audit:\n  got:  %+v\n  want: %+v", label, e.Window, e, want)
		}
	}
}

// TestReauditCoalescingInterleaving covers Reaudit bookkeeping:
// consecutive scheduled re-audits of an unchanged window coalesce into
// one history entry (Reaudits counts them), unscheduled re-audits and
// drift-forced audits never coalesce, and history window indices stay
// monotone throughout.
func TestReauditCoalescingInterleaving(t *testing.T) {
	sink := &captureSink{}
	cache := dataset.NewStateCache(1 << 20)
	r, err := NewRegistry(RegistryConfig{Engine: newTestEngine(t), ChunkStates: cache, Sinks: []Sink{sink}})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	t.Cleanup(r.Close)
	spec := creditSpec("coalesce")
	spec.AuditEvery = 10 // off cadence: only the baseline, breaches, and re-audits grade
	m, err := r.Register(spec)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}

	m.Reaudit(true) // before any window: must be a no-op
	if got := len(m.History()); got != 0 {
		t.Fatalf("re-audit before first window recorded %d entries", got)
	}

	base := creditFrame(t, 400, 0, 0.35, 1)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	must(m.Ingest(stream.Arrival{TimeMS: 0, Rows: base}))
	must(m.Ingest(stream.Arrival{TimeMS: 100, Rows: base.Slice(0, 350)}))
	must(m.Ingest(stream.Arrival{TimeMS: 200})) // heartbeat closes window 1
	if got := len(m.History()); got != 2 {
		t.Fatalf("history len = %d, want 2 (baseline + window 1)", got)
	}

	// Three scheduled heartbeats on an unchanged window: one entry.
	for i := 0; i < 3; i++ {
		m.Reaudit(true)
	}
	hist := m.History()
	if got := len(hist); got != 3 {
		t.Fatalf("history len = %d, want 3 after coalesced re-audits", got)
	}
	last := hist[len(hist)-1]
	if !last.Scheduled || last.Window != 1 || last.Reaudits != 3 || !last.Audited {
		t.Fatalf("coalesced entry = %+v, want scheduled window 1 with 3 re-audits", last)
	}
	if got := r.Metrics().ScheduledReaudits; got != 3 { // the pre-window call no-ops before counting
		t.Errorf("ScheduledReaudits = %d, want 3", got)
	}

	// An unscheduled re-audit must not coalesce — and must break the
	// scheduled run, so the next scheduled one starts a fresh entry.
	m.Reaudit(false)
	m.Reaudit(true)
	hist = m.History()
	if got := len(hist); got != 5 {
		t.Fatalf("history len = %d, want 5 after unscheduled interleave", got)
	}
	if e := hist[3]; e.Scheduled || e.Reaudits != 1 {
		t.Errorf("unscheduled entry = %+v, want unscheduled Reaudits=1", e)
	}
	if e := hist[4]; !e.Scheduled || e.Reaudits != 1 {
		t.Errorf("post-interleave scheduled entry = %+v, want fresh Reaudits=1", e)
	}

	// Drift-forced audit: a new window with a gross shift breaches and
	// audits off cadence; subsequent scheduled re-audits target the new
	// window and must not coalesce into the old one's entries.
	drifted := scaleColumn(t, base, "income", 6)
	must(m.Ingest(stream.Arrival{TimeMS: 250, Rows: drifted}))
	must(m.Ingest(stream.Arrival{TimeMS: 400})) // closes window 2
	m.Reaudit(true)
	m.Reaudit(true)
	hist = m.History()
	forced := hist[5]
	if forced.Window != 2 || !forced.Audited || forced.Drift == nil || !forced.Drift.Breached {
		t.Fatalf("drift-forced entry = %+v, want audited breached window 2", forced)
	}
	tail := hist[len(hist)-1]
	if !tail.Scheduled || tail.Window != 2 || tail.Reaudits != 2 {
		t.Errorf("tail entry = %+v, want scheduled window 2 with 2 coalesced re-audits", tail)
	}
	breach := false
	for _, k := range sink.kinds() {
		breach = breach || k == AlertDriftBreach
	}
	if !breach {
		t.Error("drift breach never alerted")
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].Window < hist[i-1].Window {
			t.Fatalf("history indices not monotone: %d after %d", hist[i].Window, hist[i-1].Window)
		}
	}
}
