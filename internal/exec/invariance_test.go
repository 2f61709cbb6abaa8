package exec

import (
	"math"
	"sort"
	"testing"
)

// shardCounts are the shard sweeps every invariance test runs: the
// sequential plan (1) against pools smaller than, equal to, and larger
// than the chunk count, including degenerate single-row shards.
var shardCounts = []int{1, 2, 3, 4, 7, 16, 64}

// sizes exercise the chunk-layout edge cases: empty, single row, fewer
// rows than shards (empty shards), exact chunk multiples, ragged tails.
var sizes = []int{0, 1, 5, 63, 64, 65, 1000}

// bits converts a float to comparable bits (NaN-stable).
func bits(x float64) uint64 { return math.Float64bits(x) }

// TestShardInvariance proves the engine's central property: for every
// kernel the repo ships, results at any shard count are bit-for-bit
// identical to the sequential (1-shard) plan, for every size class
// including empty shards and single-row shards.
func TestShardInvariance(t *testing.T) {
	const chunk = 64
	for _, n := range sizes {
		xs := ramp(n, uint64(n)+1)
		ys := make([]float64, n)
		preds := make([]float64, n)
		groups := make([]string, n)
		for i := range xs {
			ys[i] = float64(i % 2)
			preds[i] = float64((i / 3) % 2)
			groups[i] = string(rune('a' + i%3))
		}

		run := func(shards int) (*Moments, *Outcomes, *Sorted, *Levels) {
			states, err := Run(n, Options{Shards: shards, ChunkSize: chunk},
				NewMoments(xs),
				NewOutcomes(ys, preds, groups, "a", "b"),
				NewSorted(xs, true),
				NewLevels(groups),
			)
			if err != nil {
				t.Fatalf("n=%d shards=%d: %v", n, shards, err)
			}
			return states[0].(*Moments), states[1].(*Outcomes), states[2].(*Sorted), states[3].(*Levels)
		}

		m1, o1, s1, l1 := run(1)
		for _, shards := range shardCounts[1:] {
			mN, oN, sN, lN := run(shards)

			// Moments: every field including the float sums must match bitwise.
			if m1.N != mN.N ||
				bits(m1.Sum) != bits(mN.Sum) ||
				bits(m1.Min) != bits(mN.Min) ||
				bits(m1.Max) != bits(mN.Max) ||
				bits(m1.Mean()) != bits(mN.Mean()) ||
				bits(m1.Variance()) != bits(mN.Variance()) {
				t.Errorf("n=%d shards=%d: Moments diverged: %+v vs %+v", n, shards, m1, mN)
			}

			// Outcomes: exact integer counts per group.
			if len(o1.Counts) != len(oN.Counts) || o1.ErrRow != oN.ErrRow {
				t.Errorf("n=%d shards=%d: Outcomes shape diverged", n, shards)
			}
			for g, c1 := range o1.Counts {
				cN := oN.Counts[g]
				if cN == nil || *c1 != *cN {
					t.Errorf("n=%d shards=%d: group %q counts %+v vs %+v", n, shards, g, c1, cN)
				}
			}

			// Sorted: identical sequences.
			v1, vN := s1.Values(), sN.Values()
			if len(v1) != len(vN) {
				t.Fatalf("n=%d shards=%d: sorted lengths %d vs %d", n, shards, len(v1), len(vN))
			}
			for i := range v1 {
				if bits(v1[i]) != bits(vN[i]) {
					t.Errorf("n=%d shards=%d: sorted[%d] %v vs %v", n, shards, i, v1[i], vN[i])
				}
			}

			// Levels: exact counts.
			if len(l1.Counts) != len(lN.Counts) {
				t.Errorf("n=%d shards=%d: level sets diverged", n, shards)
			}
			for k, c := range l1.Counts {
				if lN.Counts[k] != c {
					t.Errorf("n=%d shards=%d: level %q %d vs %d", n, shards, k, c, lN.Counts[k])
				}
			}
		}
	}
}

// TestChunkFoldMatchesRun proves the chunk-ordered merge composes the
// way the monitor's chunk-state cache relies on: folding, in chunk
// order, states that were each computed over one chunk's rows is
// bit-identical to Run over all of them, and folding a chunk-aligned
// suffix is bit-identical to Run over just those rows — the window
// slide's re-merge.
func TestChunkFoldMatchesRun(t *testing.T) {
	const chunk = 64
	for _, n := range sizes {
		xs := ramp(n, uint64(n)+3)
		groups := make([]string, n)
		for i := range groups {
			groups[i] = string(rune('a' + i%4))
		}
		kernels := func(lo, hi int) []Kernel {
			return []Kernel{NewMoments(xs[lo:hi]), NewSorted(xs[lo:hi], true), NewLevels(groups[lo:hi])}
		}
		// fold merges per-chunk Run states over [lo, n) in chunk order.
		fold := func(lo int) []State {
			var out []State
			for _, k := range kernels(0, 0) {
				out = append(out, k.New())
			}
			for c := lo; c < n; c += chunk {
				hi := min(c+chunk, n)
				states, err := Run(hi-c, Options{ChunkSize: chunk}, kernels(c, hi)...)
				if err != nil {
					t.Fatalf("n=%d chunk at %d: %v", n, c, err)
				}
				for i := range out {
					out[i].Merge(states[i])
				}
			}
			return out
		}
		for _, shards := range shardCounts {
			opt := Options{Shards: shards, ChunkSize: chunk}
			direct, err := Run(n, opt, kernels(0, n)...)
			if err != nil {
				t.Fatalf("n=%d shards=%d: Run: %v", n, shards, err)
			}
			assertStatesEqual(t, "full fold", fold(0), direct)
			if n <= chunk {
				continue
			}
			rescan, err := Run(n-chunk, opt, kernels(chunk, n)...)
			if err != nil {
				t.Fatalf("n=%d shards=%d: suffix Run: %v", n, shards, err)
			}
			assertStatesEqual(t, "suffix fold", fold(chunk), rescan)
		}
	}
}

// assertStatesEqual compares [Moments, Sorted, Levels] state bundles
// bitwise.
func assertStatesEqual(t *testing.T, label string, got, want []State) {
	t.Helper()
	gm, wm := got[0].(*Moments), want[0].(*Moments)
	if gm.N != wm.N || bits(gm.Sum) != bits(wm.Sum) || bits(gm.Min) != bits(wm.Min) ||
		bits(gm.Max) != bits(wm.Max) || bits(gm.Variance()) != bits(wm.Variance()) {
		t.Errorf("%s: Moments diverged: n=%d sum=%v var=%v vs n=%d sum=%v var=%v",
			label, gm.N, gm.Sum, gm.Variance(), wm.N, wm.Sum, wm.Variance())
	}
	gv, wv := got[1].(*Sorted).Values(), want[1].(*Sorted).Values()
	if len(gv) != len(wv) {
		t.Fatalf("%s: Sorted lengths %d vs %d", label, len(gv), len(wv))
	}
	for i := range wv {
		if bits(gv[i]) != bits(wv[i]) {
			t.Errorf("%s: Sorted[%d] %v vs %v", label, i, gv[i], wv[i])
		}
	}
	gl, wl := got[2].(*Levels), want[2].(*Levels)
	if len(gl.Counts) != len(wl.Counts) {
		t.Errorf("%s: level sets diverged: %v vs %v", label, gl.Counts, wl.Counts)
	}
	for k, c := range wl.Counts {
		if gl.Counts[k] != c {
			t.Errorf("%s: level %q %d vs %d", label, k, gl.Counts[k], c)
		}
	}
}

// TestMergeRunsMatchesFullSort proves the run fold behind Sorted.Values:
// folding arbitrary pre-sorted runs reproduces the one-shot sort of
// their concatenation bit for bit, however the values were split.
func TestMergeRunsMatchesFullSort(t *testing.T) {
	xs := ramp(500, 17)
	splits := [][]int{
		{500},
		{1, 499},
		{100, 100, 100, 100, 100},
		{3, 0, 250, 7, 240},
		{250, 250},
	}
	want := append([]float64(nil), xs...)
	sort.Float64s(want)
	for _, split := range splits {
		runs := make([][]float64, 0, len(split))
		off := 0
		for _, w := range split {
			run := append([]float64(nil), xs[off:off+w]...)
			sort.Float64s(run)
			runs = append(runs, run)
			off += w
		}
		got := mergeRuns(runs)
		if len(got) != len(want) {
			t.Fatalf("split %v: len %d, want %d", split, len(got), len(want))
		}
		for i := range want {
			if bits(got[i]) != bits(want[i]) {
				t.Fatalf("split %v: [%d] %v, want %v", split, i, got[i], want[i])
			}
		}
	}
	if got := mergeRuns(nil); got != nil {
		t.Errorf("mergeRuns(nil) = %v, want nil", got)
	}
}
