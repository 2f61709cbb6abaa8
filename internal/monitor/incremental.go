package monitor

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/exec"
	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/provenance"
)

// Chunk pairs one window chunk — an arrival batch — with its content
// hash. The windower memoizes each batch's hash once, so overlapping
// sliding windows that share the batch share the identity for free.
type Chunk struct {
	// Rows is the chunk's frame. Required, non-empty.
	Rows *frame.Frame
	// Hash is Rows' content hash (frame.Hash). Empty disables caching
	// for this chunk; a wrong hash serves another chunk's state, so
	// callers must hand the true content hash.
	Hash string
}

// ChunkScorer scores a sliding window's drift against a pinned
// baseline profile from per-chunk states instead of a materialized
// frame. A chunk's state holds, per numeric column, each finite value's
// slot among the baseline's distinct values (rankTable), and per
// categorical column its level counts. Score adds the window's slots
// into one count array per numeric column and reads the KS statistic
// and the PSI bins off one pass over it, bit-identical to
// DetectDriftProfiled over the concatenated window (the
// incremental≡rescan property the monitor tests enforce). States are
// cached in a dataset.StateCache keyed by (chunk hash, baseline
// fingerprint), so a window advance sorts and ranks only the rows that
// entered, plus, per numeric column, one pass over the window's values
// and the baseline's distinct values. A cache miss rebuilds the state
// from the chunk's rows — eviction costs time, never correctness — and
// the chunks a window misses are built in parallel.
//
// Moments are deliberately absent from the chunk state: their
// parallel-variance merge is chunk-layout-sensitive, and the profiled
// drift path only needs them on the baseline side, where the profile
// already holds them.
//
// A scorer is immutable after construction and safe for concurrent
// use.
type ChunkScorer struct {
	profile *BaselineProfile
	cache   *dataset.StateCache
	// ranks holds each numeric profiled column's rank table, in profile
	// column order; nil for categorical and absent columns and for a
	// numeric column without finite baseline values.
	ranks []*rankTable
	// key fingerprints the profile's column treatment (names + kinds,
	// in order) and the distinct baseline values the slots are taken
	// against; it namespaces cache keys so monitors share states only
	// when their states would be identical. It is a content hash, never
	// a pointer: a freed profile's address can be reused by another.
	key string
}

// rankTable is one numeric column's baseline in the form Score reads:
// the distinct values u_1 < … < u_m of the sorted finite sample, the
// baseline CDF at each, and the rank of each PSI edge.
type rankTable struct {
	distinct []float64
	// cdf[k] is the share of baseline values <= u_k, as the float
	// ksStatistic computes for it: cum[k]/nB with cum[0] = 0.
	cdf []float64
	// edgeRank[i] is the k with u_k == edges[i] (edges are baseline
	// values, non-decreasing, possibly repeated).
	edgeRank []int
}

// newRankTable builds the rank table of a sorted, non-empty finite
// sample and its PSI edges.
func newRankTable(sorted, edges []float64) *rankTable {
	rt := &rankTable{cdf: []float64{0}}
	nb := float64(len(sorted))
	for i, v := range sorted {
		if i+1 < len(sorted) && sorted[i+1] == v {
			continue
		}
		rt.distinct = append(rt.distinct, v)
		rt.cdf = append(rt.cdf, float64(i+1)/nb)
	}
	rt.edgeRank = make([]int, len(edges))
	for i, e := range edges {
		rt.edgeRank[i] = sort.SearchFloat64s(rt.distinct, e) + 1
	}
	return rt
}

// slots ranks a column's finite values (NaN and ±Inf dropped, as the
// drift sort drops them) against the distinct baseline values: slot
// 2k-1 for v == u_k, slot 2k for u_k < v < u_{k+1}, 0 below u_1 and 2m
// above u_m. The values are sorted first, so each search starts where
// the previous one ended and the slots come out ascending.
func (rt *rankTable) slots(vals []float64) ([]uint32, error) {
	st, err := exec.RunOne(len(vals), exec.Options{}, exec.NewSorted(vals, true))
	if err != nil {
		return nil, err
	}
	sorted := st.(*exec.Sorted).Values()
	out := make([]uint32, len(sorted))
	m, k := len(rt.distinct), 0
	for i, v := range sorted {
		// Gallop from the previous rank, then binary-search the bracket.
		step := 1
		for k+step <= m && rt.distinct[k+step-1] < v {
			k += step
			step *= 2
		}
		k += sort.SearchFloat64s(rt.distinct[k:min(k+step, m)], v)
		s := 2 * k
		if k < m && rt.distinct[k] == v {
			s++
		}
		out[i] = uint32(s)
	}
	return out, nil
}

// score folds the window's slots of column col into counts and returns
// the two-sample KS statistic and the window's PSI bin counts, equal
// bit for bit to ksStatistic and histSorted over the window's sorted
// finite values. nw is the window's finite count (> 0).
//
// The walk visits every u_k with J(<u_k) and J(<=u_k), the window
// counts below and up to it. Between two baseline values the baseline
// CDF is flat and the window's only rises, so |F_B - F_W| peaks at an
// end of each stretch: every pair ksStatistic evaluates is one of the
// walk's or dominated by one, and every pair of the walk's is one of
// ksStatistic's or dominated by one. Both take the maximum of the same
// float expression, so the bits agree.
func (rt *rankTable) score(states []*chunkState, col, nw int, counts []int32) (float64, []float64) {
	m := len(rt.distinct)
	counts = counts[:2*m+1]
	clear(counts)
	for _, st := range states {
		for _, s := range st.cols[col].slots {
			counts[s]++
		}
	}
	fw := float64(nw)
	hist := make([]float64, len(rt.edgeRank)+1)
	// j is the running window count J. Every gap is a non-negative Abs,
	// never NaN, so a plain compare keeps the maximum math.Max would.
	var d float64
	j, prev, e := int(counts[0]), 0, 0
	for k := 1; k <= m; k++ {
		if g := math.Abs(rt.cdf[k-1] - float64(j)/fw); g > d {
			d = g
		}
		j += int(counts[2*k-1])
		if g := math.Abs(rt.cdf[k] - float64(j)/fw); g > d {
			d = g
		}
		for ; e < len(rt.edgeRank) && rt.edgeRank[e] == k; e++ {
			hist[e] = float64(j - prev)
			prev = j
		}
		j += int(counts[2*k])
	}
	hist[len(rt.edgeRank)] = float64(nw - prev)
	return d, hist
}

// countPool recycles Score's count arrays. Each call takes its own, so
// concurrent Score calls never share one.
var countPool = sync.Pool{New: func() any { return new([]int32) }}

// NewChunkScorer builds a scorer for the given profile. cache may be
// nil, in which case every Score rebuilds every chunk state (correct,
// just not incremental).
func NewChunkScorer(p *BaselineProfile, cache *dataset.StateCache) (*ChunkScorer, error) {
	if p == nil {
		return nil, fmt.Errorf("monitor: chunk scorer needs a baseline profile")
	}
	return newChunkScorer(p, cache), nil
}

// newChunkScorer is NewChunkScorer for a non-nil profile.
func newChunkScorer(p *BaselineProfile, cache *dataset.StateCache) *ChunkScorer {
	s := &ChunkScorer{profile: p, cache: cache, ranks: make([]*rankTable, len(p.cols))}
	parts := make([]string, 0, 3*len(p.cols)+1)
	parts = append(parts, "rds-chunk-state-v2")
	for i := range p.cols {
		pc := &p.cols[i]
		kind, fingerprint := "absent", ""
		if pc.present {
			if pc.numeric {
				kind = "numeric"
				if len(pc.sorted) > 0 {
					s.ranks[i] = newRankTable(pc.sorted, pc.edges)
					fingerprint = s.ranks[i].fingerprint()
				}
			} else {
				kind = "categorical"
			}
		}
		parts = append(parts, pc.name, kind, fingerprint)
	}
	s.key = provenance.HashStrings(parts...)
	return s
}

// fingerprint hashes the distinct baseline values, the only part of
// the table a chunk's slots depend on.
func (rt *rankTable) fingerprint() string {
	buf := make([]byte, 8*len(rt.distinct))
	for i, u := range rt.distinct {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(u))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// chunkState is one chunk's cached drift state: per profiled column,
// the chunk's dtype plus its baseline slots (numeric treatment) or
// level counts (categorical treatment), in profile column order.
type chunkState struct {
	rows int
	cols []chunkColumn
}

// chunkColumn is one profiled column's state within a chunk.
type chunkColumn struct {
	present bool
	dtype   frame.DType
	// slots holds one rankTable slot per finite value, ascending.
	slots  []uint32
	levels *exec.Levels
}

// sizeBytes estimates the state's heap footprint for the cache's byte
// budget (relative accuracy is all the budget arithmetic needs).
func (s *chunkState) sizeBytes() int64 {
	const colOverhead = 64
	n := int64(48)
	for i := range s.cols {
		cc := &s.cols[i]
		n += colOverhead + 4*int64(len(cc.slots))
		if cc.levels != nil {
			for k := range cc.levels.Counts {
				n += 48 + int64(len(k))
			}
		}
	}
	return n
}

// buildState scans one chunk into its per-column drift state.
func (s *ChunkScorer) buildState(rows *frame.Frame) (*chunkState, error) {
	st := &chunkState{rows: rows.NumRows(), cols: make([]chunkColumn, len(s.profile.cols))}
	for i := range s.profile.cols {
		pc := &s.profile.cols[i]
		cc := &st.cols[i]
		if !pc.present || !rows.Has(pc.name) {
			continue
		}
		c := rows.MustCol(pc.name)
		cc.present = true
		cc.dtype = c.DType()
		if pc.numeric {
			// Type drift is recorded, not scored: Score reports it with
			// DetectDriftProfiled's error. A column without finite
			// baseline values is never scored.
			if (cc.dtype != frame.Float64 && cc.dtype != frame.Int64) || s.ranks[i] == nil {
				continue
			}
			slots, err := s.ranks[i].slots(c.Floats())
			if err != nil {
				return nil, fmt.Errorf("monitor: chunk state %q: %w", pc.name, err)
			}
			cc.slots = slots
		} else {
			lv, err := exec.RunOne(c.Len(), exec.Options{}, exec.NewLevelsSeries(c))
			if err != nil {
				return nil, fmt.Errorf("monitor: chunk state %q: %w", pc.name, err)
			}
			cc.levels = lv.(*exec.Levels)
			// The cached state outlives the chunk frame; drop the raw
			// column so residency is the counts, not the rows.
			cc.levels.Detach()
		}
	}
	return st, nil
}

// state returns the chunk's drift state, consulting the cache first.
func (s *ChunkScorer) state(ch Chunk) (*chunkState, error) {
	var key string
	if s.cache != nil && ch.Hash != "" {
		key = provenance.HashStrings("chunk-state", s.key, ch.Hash)
		if v, ok := s.cache.Get(key); ok {
			if st, ok := v.(*chunkState); ok {
				return st, nil
			}
		}
	}
	st, err := s.buildState(ch.Rows)
	if err != nil {
		return nil, err
	}
	if key != "" {
		s.cache.Put(key, st, st.sizeBytes())
	}
	return st, nil
}

// windowStates is the exec state that gathers a window's chunk states:
// Update looks up or builds the states of chunks [lo, hi), Merge appends
// in chunk order and keeps the first error.
type windowStates struct {
	scorer *ChunkScorer
	chunks []Chunk
	states []*chunkState
	err    error
}

// Update gathers the states of chunks [lo, hi).
func (w *windowStates) Update(lo, hi int) {
	for _, ch := range w.chunks[lo:hi] {
		st, err := w.scorer.state(ch)
		if err != nil {
			w.err = err
			return
		}
		w.states = append(w.states, st)
	}
}

// Merge appends the other state's chunk states after this one's.
func (w *windowStates) Merge(other exec.State) {
	o := other.(*windowStates)
	if w.err == nil {
		w.err = o.err
	}
	w.states = append(w.states, o.states...)
}

// Score computes the window's drift report from its chunks,
// bit-identical to DetectDriftProfiled over the chunks' concatenation.
// It refuses the windows that concatenation refuses: chunks
// disagreeing on schema (frame.Append's check, so materializing the
// window fails too) and a profiled numeric column whose dtype changed,
// with DetectDriftProfiled's error string.
func (s *ChunkScorer) Score(chunks []Chunk) (*DriftReport, error) {
	if len(chunks) == 0 {
		return nil, fmt.Errorf("monitor: drift detection needs non-empty baseline and current frames")
	}
	// Chunks must agree on the full window schema, not just the
	// profiled columns: materialization rejects a mid-window schema
	// change, and Score must never grade a window the rescan would
	// refuse.
	first := chunks[0].Rows
	for _, ch := range chunks[1:] {
		if !schemaEqual(first, ch.Rows) {
			return nil, fmt.Errorf("monitor: window chunks disagree on schema")
		}
	}
	// The chunks' states are independent of each other, so a window
	// whose chunks miss the cache builds them in parallel, one chunk per
	// exec row; the merge puts them back in chunk order.
	ws, err := exec.RunOne(len(chunks), exec.Options{ChunkSize: 1}, exec.Kernel{
		Name: "chunk-states",
		New:  func() exec.State { return &windowStates{scorer: s, chunks: chunks} },
	})
	if err != nil {
		return nil, err
	}
	if err := ws.(*windowStates).err; err != nil {
		return nil, err
	}
	states := ws.(*windowStates).states

	counts := countPool.Get().(*[]int32)
	defer countPool.Put(counts)
	p := s.profile
	rep := &DriftReport{}
	for i := range p.cols {
		pc := &p.cols[i]
		if !pc.present || !states[0].cols[i].present {
			continue
		}
		cd := ColumnDrift{Column: pc.name, KSPValue: 1}
		if pc.numeric {
			if dt := states[0].cols[i].dtype; dt != frame.Float64 && dt != frame.Int64 {
				return nil, fmt.Errorf("monitor: drift: column %q changed type %s -> %s since the baseline",
					pc.name, pc.dtype, dt)
			}
			rt := s.ranks[i]
			if rt == nil {
				continue
			}
			nw := 0
			for _, st := range states {
				nw += len(st.cols[i].slots)
			}
			if nw == 0 {
				continue
			}
			if need := 2*len(rt.distinct) + 1; cap(*counts) < need {
				*counts = make([]int32, need)
			}
			ks, hist := rt.score(states, i, nw, *counts)
			cd.PSI = psi(pc.hist, hist)
			cd.KS = ks
			cd.KSPValue = ksPValue(ks, len(pc.sorted), nw)
		} else {
			merged := &exec.Levels{Counts: map[string]int64{}}
			for _, st := range states {
				merged.Merge(st.cols[i].levels)
			}
			cd.PSI = psiLevels(pc.levels, merged)
		}
		rep.add(cd, p.cfg)
	}
	return rep, nil
}

// schemaEqual reports whether two frames share the exact column
// layout frame.Append requires: same count, names, and dtypes, in
// order.
func schemaEqual(a, b *frame.Frame) bool {
	if a.NumCols() != b.NumCols() {
		return false
	}
	for j := 0; j < a.NumCols(); j++ {
		ca, cb := a.ColAt(j), b.ColAt(j)
		if ca.Name() != cb.Name() || ca.DType() != cb.DType() {
			return false
		}
	}
	return true
}

// windowDataHash derives a stable content identifier for a window
// from its chunk hashes — O(chunks) where frame.Hash over the
// materialized window is O(rows · cols). It feeds the audit engine's
// report-cache key (serve.Request.DataHash): collision-free because
// every part hash is itself a content hash and HashStrings
// length-frames its parts.
func windowDataHash(chunks []Chunk) string {
	parts := make([]string, 0, len(chunks)+1)
	parts = append(parts, "rds-window-chunks-v1")
	for _, ch := range chunks {
		parts = append(parts, ch.Hash)
	}
	return provenance.HashStrings(parts...)
}
