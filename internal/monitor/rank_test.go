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
	"github.com/responsible-data-science/rds/internal/synth"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// rankTrialShape fixes one trial's value grids, so baseline and window
// frames share a schema while the window may reach past the baseline's
// range on both sides.
type rankTrialShape struct {
	fine       bool    // continuous draws (few ties) instead of a coarse grid
	grid       int     // coarse-grid half-width for the "cont" column
	levels     int     // integer levels of the "lvl" column (1–5)
	levelBase  int64   // smallest baseline level
	special    float64 // share of cells drawn from NaN, ±Inf, ±0
	ghostEmpty bool    // the baseline's "ghost" column is all NaN
}

// rankTrialFrame draws rows rows of the trial's schema. window widens
// the grids past the baseline's range; noFinite makes every "cont"
// cell NaN or ±Inf.
func rankTrialFrame(rng *rand.Rand, sh rankTrialShape, rows int, window, noFinite bool) *frame.Frame {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	zeros := []float64{math.Copysign(0, -1), 0, -1, 1, 0.5}
	cont := make([]float64, rows)
	lvl := make([]int64, rows)
	zero := make([]float64, rows)
	ghost := make([]float64, rows)
	cat := make([]string, rows)
	spread := sh.grid
	lo, width := sh.levelBase, int64(sh.levels)
	if window {
		spread += 3
		lo, width = lo-1, width+2
	}
	for i := 0; i < rows; i++ {
		switch {
		case noFinite:
			cont[i] = specials[rng.Intn(3)]
		case rng.Float64() < sh.special:
			cont[i] = specials[rng.Intn(len(specials))]
		case sh.fine:
			cont[i] = rng.NormFloat64() * float64(spread)
		default:
			cont[i] = float64(rng.Intn(2*spread+1)-spread) / 2
		}
		lvl[i] = lo + rng.Int63n(width)
		zero[i] = zeros[rng.Intn(len(zeros))]
		ghost[i] = rng.NormFloat64()
		if !window && sh.ghostEmpty {
			ghost[i] = math.NaN()
		}
		cat[i] = fmt.Sprintf("c%d", rng.Intn(3))
	}
	return frame.MustNew(
		frame.NewFloat64("cont", cont),
		frame.NewInt64("lvl", lvl),
		frame.NewFloat64("zero", zero),
		frame.NewFloat64("ghost", ghost),
		frame.NewString("cat", cat).Intern(),
	)
}

// TestChunkScorerRankProperty: over random baselines and windows —
// ties, integer columns of 1–5 levels, mixed -0/+0, NaN and ±Inf
// cells, chunks without a finite value, window values past the
// baseline's range on both sides, 2–13 bins (repeated edges included),
// 1–8 chunks — Score from baseline slots equals DetectDriftProfiled
// over the concatenated window bit for bit.
func TestChunkScorerRankProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1919))
	var scored, ks, repeatedEdges int
	for trial := 0; trial < 600; trial++ {
		sh := rankTrialShape{
			fine:       rng.Intn(3) == 0,
			grid:       1 + rng.Intn(12),
			levels:     1 + rng.Intn(5),
			levelBase:  int64(rng.Intn(5)) - 2,
			special:    []float64{0, 0.05, 0.3}[rng.Intn(3)],
			ghostEmpty: rng.Intn(3) == 0,
		}
		cfg := DriftConfig{Bins: 2 + rng.Intn(12)}
		baseline := rankTrialFrame(rng, sh, 1+rng.Intn(300), false, false)
		prof, err := NewBaselineProfile(baseline, cfg)
		if err != nil {
			t.Fatalf("trial %d: NewBaselineProfile: %v", trial, err)
		}
		sc, err := NewChunkScorer(prof, nil)
		if err != nil {
			t.Fatalf("trial %d: NewChunkScorer: %v", trial, err)
		}
		parts := make([]*frame.Frame, 1+rng.Intn(8))
		chunks := make([]Chunk, len(parts))
		for i := range parts {
			parts[i] = rankTrialFrame(rng, sh, 1+rng.Intn(40), true, rng.Intn(4) == 0)
			chunks[i] = Chunk{Rows: parts[i], Hash: parts[i].Hash()}
		}
		window, err := parts[0].Append(parts[1:]...)
		if err != nil {
			t.Fatalf("trial %d: Append: %v", trial, err)
		}
		want, werr := DetectDriftProfiled(prof, window)
		got, gerr := sc.Score(chunks)
		if werr != nil || gerr != nil {
			t.Fatalf("trial %d: errors: rescan %v, incremental %v", trial, werr, gerr)
		}
		if !bitsDeepEqual(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Fatalf("trial %d (bins %d, %d chunks): Score diverged from DetectDriftProfiled:\n  got:  %+v\n  want: %+v",
				trial, cfg.Bins, len(chunks), got, want)
		}
		for _, cd := range got.Columns {
			scored++
			if cd.KS > 0 {
				ks++
			}
		}
		for i := range prof.cols {
			e := prof.cols[i].edges
			for j := 1; j < len(e); j++ {
				if e[j] == e[j-1] {
					repeatedEdges++
					break
				}
			}
		}
	}
	// Guard against a vacuous pass.
	if scored == 0 || ks == 0 || repeatedEdges == 0 {
		t.Fatalf("property never exercised: %d columns scored, %d with KS > 0, %d profiles with repeated edges",
			scored, ks, repeatedEdges)
	}
}

// TestChunkStatesIsolatedByBaseline: two monitors on one registry share
// one chunk-state cache and ingest the same batches under the same
// schema, but pin different baselines by baseline_ref. A chunk's slots
// depend on the baseline, so each monitor must read only its own
// states: each history equals its own run without a cache bit for bit.
func TestChunkStatesIsolatedByBaseline(t *testing.T) {
	datasets := dataset.NewRegistry(64 << 20)
	refs := make([]string, 2)
	for i := range refs {
		base, err := synth.Credit(synth.CreditConfig{N: 800, Bias: 0.5, Seed: uint64(31 + i)})
		if err != nil {
			t.Fatal(err)
		}
		meta, err := datasets.PutAs(tenant.Default, fmt.Sprintf("baseline-%d", i), base)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = meta.Ref
	}
	specFor := func(i int) Spec {
		spec := baselineSpec(fmt.Sprintf("iso-%d", i), refs[i])
		spec.Window = WindowConfig{WidthMS: 100, SlideMS: 25}
		spec.AuditEvery = 1000
		return spec
	}
	pool := creditFrame(t, 2400, 0.5, 0.35, 33)
	var arrivals []stream.Arrival
	for i := 0; i < 16; i++ {
		arrivals = append(arrivals, stream.Arrival{TimeMS: int64(25 * i), Rows: pool.Slice(150*i, 150*i+150)})
	}

	run := func(cache *dataset.StateCache) [][]WindowEntry {
		r, err := NewRegistry(RegistryConfig{Engine: newTestEngine(t), Datasets: datasets, ChunkStates: cache})
		if err != nil {
			t.Fatalf("NewRegistry: %v", err)
		}
		defer r.Close()
		ms := make([]*Monitor, len(refs))
		for i := range ms {
			if ms[i], err = r.Register(specFor(i)); err != nil {
				t.Fatalf("Register: %v", err)
			}
		}
		for _, a := range arrivals {
			for _, m := range ms {
				if err := m.Ingest(a); err != nil {
					t.Fatalf("Ingest: %v", err)
				}
			}
		}
		out := make([][]WindowEntry, len(ms))
		for i, m := range ms {
			m.Flush()
			out[i] = m.History()
		}
		return out
	}
	cache := dataset.NewStateCache(8 << 20)
	shared := run(cache)
	alone := run(nil)
	for i := range refs {
		mustEqualHistories(t, fmt.Sprintf("monitor %d", i), shared[i], alone[i])
	}

	// Guard against a vacuous pass: the windows were scored from the
	// cache, and the two baselines grade the same windows differently.
	if snap := cache.Metrics(); snap.Hits == 0 {
		t.Fatalf("shared cache never hit: %+v", snap)
	}
	differ := false
	for j := range shared[0] {
		a, b := shared[0][j].Drift, shared[1][j].Drift
		if a != nil && b != nil && !bitsDeepEqual(reflect.ValueOf(a), reflect.ValueOf(b)) {
			differ = true
		}
	}
	if !differ {
		t.Fatal("both baselines scored every window alike; the test cannot tell their states apart")
	}
}

// TestChunkScorerConcurrentScore: Score takes its count array per call,
// so goroutines scoring different windows through scorers of different
// baselines at once (count arrays of different sizes cycling through
// one pool) each get the report a sequential Score gives. Run under
// -race.
func TestChunkScorerConcurrentScore(t *testing.T) {
	cache := dataset.NewStateCache(8 << 20)
	var scorers []*ChunkScorer
	for i, rows := range []int{500, 3000} {
		prof, err := NewBaselineProfile(creditFrame(t, rows, 0, 0.35, uint64(41+i)), DriftConfig{})
		if err != nil {
			t.Fatalf("NewBaselineProfile: %v", err)
		}
		sc, err := NewChunkScorer(prof, cache)
		if err != nil {
			t.Fatalf("NewChunkScorer: %v", err)
		}
		scorers = append(scorers, sc)
	}
	chunks := splitChunks(creditFrame(t, 1200, 0.5, 0.35, 43), 12)
	type job struct {
		sc     *ChunkScorer
		window []Chunk
		want   *DriftReport
	}
	var jobs []job
	for _, sc := range scorers {
		for lo := 0; lo+4 <= len(chunks); lo += 2 {
			want, err := sc.Score(chunks[lo : lo+4])
			if err != nil {
				t.Fatalf("Score: %v", err)
			}
			jobs = append(jobs, job{sc, chunks[lo : lo+4], want})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				for i := range jobs {
					j := jobs[(i+g)%len(jobs)]
					got, err := j.sc.Score(j.window)
					if err != nil {
						t.Errorf("Score: %v", err)
						return
					}
					if !bitsDeepEqual(reflect.ValueOf(got), reflect.ValueOf(j.want)) {
						t.Errorf("concurrent Score diverged from the sequential one:\n  got:  %+v\n  want: %+v", got, j.want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
