package monitor

import (
	"fmt"

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
// frame. Each chunk contributes its sorted finite sample per numeric
// column and its level counts per categorical column — both
// chunk-layout-invariant, so the deterministic re-merge is
// bit-identical to DetectDriftProfiled over the concatenated window
// (the incremental≡rescan property the monitor tests enforce). States
// are cached in a dataset.StateCache keyed by (chunk hash, profile
// key): a window advance re-merges surviving chunk states and only
// scans the rows that entered, making the slide O(delta), not
// O(window). A cache miss rebuilds the state from the chunk's rows —
// eviction costs time, never correctness.
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
	// key fingerprints the profile's column treatment (names + kinds,
	// in order); it namespaces cache keys so two monitors profiling
	// the same stream share states while differently configured ones
	// cannot collide.
	key string
}

// NewChunkScorer builds a scorer for the given profile. cache may be
// nil, in which case every Score rebuilds every chunk state (correct,
// just not incremental).
func NewChunkScorer(p *BaselineProfile, cache *dataset.StateCache) (*ChunkScorer, error) {
	if p == nil {
		return nil, fmt.Errorf("monitor: chunk scorer needs a baseline profile")
	}
	parts := make([]string, 0, 2*len(p.cols)+1)
	parts = append(parts, "rds-chunk-state-v1")
	for i := range p.cols {
		pc := &p.cols[i]
		kind := "absent"
		if pc.present {
			if pc.numeric {
				kind = "numeric"
			} else {
				kind = "categorical"
			}
		}
		parts = append(parts, pc.name, kind)
	}
	return &ChunkScorer{profile: p, cache: cache, key: provenance.HashStrings(parts...)}, nil
}

// chunkState is one chunk's cached drift state: per profiled column,
// the chunk's dtype plus its sorted finite sample (numeric treatment)
// or level counts (categorical treatment), in profile column order.
type chunkState struct {
	rows int
	cols []chunkColumn
}

// chunkColumn is one profiled column's state within a chunk.
type chunkColumn struct {
	present bool
	dtype   frame.DType
	sorted  []float64
	levels  *exec.Levels
}

// sizeBytes estimates the state's heap footprint for the cache's byte
// budget (relative accuracy is all the budget arithmetic needs).
func (s *chunkState) sizeBytes() int64 {
	const colOverhead = 64
	n := int64(48)
	for i := range s.cols {
		cc := &s.cols[i]
		n += colOverhead + 8*int64(len(cc.sorted))
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
			if cc.dtype != frame.Float64 && cc.dtype != frame.Int64 {
				// Type drift: recorded, not scored — Score surfaces it
				// so the caller falls back to the rescan path, which
				// reports the schema change exactly as a materialized
				// window would.
				continue
			}
			vals := c.Floats()
			sorted, err := exec.RunOne(len(vals), exec.Options{}, exec.NewSorted(vals, true))
			if err != nil {
				return nil, fmt.Errorf("monitor: chunk state %q: %w", pc.name, err)
			}
			cc.sorted = sorted.(*exec.Sorted).Values()
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

// Score computes the window's drift report from its chunks,
// bit-identical to DetectDriftProfiled over the chunks' concatenation.
// Any condition the merged path cannot reproduce exactly — chunks
// disagreeing on schema, a profiled column changing dtype — returns an
// error; callers treat every Score error as "fall back to the full
// rescan", which re-derives the legacy outcome (including the legacy
// error) from the materialized window.
func (s *ChunkScorer) Score(chunks []Chunk) (*DriftReport, error) {
	if len(chunks) == 0 {
		return nil, fmt.Errorf("monitor: drift detection needs non-empty baseline and current frames")
	}
	// Chunks must agree on the full window schema, not just the
	// profiled columns: materialization would reject a mid-window
	// schema change, and the incremental path must never grade a
	// window the rescan path would refuse.
	first := chunks[0].Rows
	for _, ch := range chunks[1:] {
		if !schemaEqual(first, ch.Rows) {
			return nil, fmt.Errorf("monitor: window chunks disagree on schema")
		}
	}
	states := make([]*chunkState, len(chunks))
	for i, ch := range chunks {
		st, err := s.state(ch)
		if err != nil {
			return nil, err
		}
		states[i] = st
	}

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
			if len(pc.sorted) == 0 {
				continue
			}
			runs := make([][]float64, 0, len(states))
			for _, st := range states {
				if len(st.cols[i].sorted) > 0 {
					runs = append(runs, st.cols[i].sorted)
				}
			}
			cv := exec.MergeRuns(runs)
			if len(cv) == 0 {
				continue
			}
			cd.PSI = psi(pc.hist, histSorted(cv, pc.edges))
			cd.KS = ksStatistic(pc.sorted, cv)
			cd.KSPValue = ksPValue(cd.KS, len(pc.sorted), len(cv))
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
