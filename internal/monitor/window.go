package monitor

import (
	"fmt"
	"sort"
	"sync"

	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/stream"
)

// WindowConfig shapes the stream windower. Zero values select sensible
// defaults.
type WindowConfig struct {
	// WidthMS is the window width in stream milliseconds (default 60000,
	// one Internet Minute).
	WidthMS int64
	// SlideMS is the hop between consecutive window starts. 0 or
	// SlideMS == WidthMS means tumbling windows; SlideMS < WidthMS means
	// overlapping sliding windows. SlideMS > WidthMS is rejected
	// (it would silently drop rows between windows).
	SlideMS int64
	// MinRows is the minimum row count for a window to be auditable
	// (default 1). Smaller windows are recorded in history as skipped
	// rather than graded on meaningless sample sizes.
	MinRows int
}

func (c WindowConfig) withDefaults() WindowConfig {
	if c.WidthMS <= 0 {
		c.WidthMS = 60_000
	}
	if c.SlideMS <= 0 {
		c.SlideMS = c.WidthMS
	}
	if c.MinRows <= 0 {
		c.MinRows = 1
	}
	return c
}

func (c WindowConfig) validate() error {
	if c.SlideMS > c.WidthMS {
		return fmt.Errorf("monitor: slide %dms exceeds width %dms (rows between windows would be dropped)", c.SlideMS, c.WidthMS)
	}
	return nil
}

// windowPart wraps one arrival batch. Overlapping sliding windows that
// cover the batch share the same part, so the memoized content hash —
// the chunk identity the incremental re-audit path caches states under
// — is computed once per batch no matter how many windows ride it.
type windowPart struct {
	rows *frame.Frame

	hashOnce sync.Once
	hash     string
}

// contentHash returns the part's frame.Hash, computed on first use.
func (p *windowPart) contentHash() string {
	p.hashOnce.Do(func() { p.hash = p.rows.Hash() })
	return p.hash
}

// closedWindow is one materializable window handed to the monitor when
// the watermark passes its end.
type closedWindow struct {
	index   int64 // window number: starts at index*SlideMS
	startMS int64
	endMS   int64
	rows    int
	parts   []*windowPart
}

// chunks returns the window's arrival batches as hashed chunk
// identities, in arrival order — the incremental drift path's input.
func (w *closedWindow) chunks() []Chunk {
	out := make([]Chunk, 0, len(w.parts))
	for _, p := range w.parts {
		if p.rows.NumRows() == 0 {
			continue
		}
		out = append(out, Chunk{Rows: p.rows, Hash: p.contentHash()})
	}
	return out
}

// materializeChunks concatenates chunk frames into one window frame
// in one pass, nil when empty; index labels errors with the window
// number.
func materializeChunks(chunks []Chunk, index int64) (*frame.Frame, error) {
	if len(chunks) == 0 {
		return nil, nil
	}
	rest := make([]*frame.Frame, len(chunks)-1)
	for i, ch := range chunks[1:] {
		rest[i] = ch.Rows
	}
	out, err := chunks[0].Rows.Append(rest...)
	if err != nil {
		return nil, fmt.Errorf("monitor: materializing window %d: %w", index, err)
	}
	return out, nil
}

// windower assigns time-ordered arrivals to tumbling/sliding windows and
// emits each window once the watermark passes its end. Not safe for
// concurrent use; the owning Monitor serializes access.
type windower struct {
	cfg       WindowConfig
	open      map[int64]*closedWindow
	watermark int64 // latest arrival time seen
	started   bool
	lateRows  int64 // rows whose windows had already closed
}

func newWindower(cfg WindowConfig) *windower {
	return &windower{cfg: cfg, open: map[int64]*closedWindow{}}
}

// observe files one arrival and returns the windows it closed, oldest
// first. Arrivals are assumed time-ordered; rows targeting only
// already-closed windows are counted as late and dropped.
func (w *windower) observe(a stream.Arrival) []*closedWindow {
	// Ingest validates arrivals before they reach the windower, but the
	// windower is the last line of defense: a negative time has no
	// window (the stream clock starts at zero), so its rows are dropped
	// as late instead of feeding indicesFor arithmetic that could
	// overflow for times near math.MinInt64.
	if a.TimeMS < 0 {
		if a.Rows != nil {
			w.lateRows += int64(a.Rows.NumRows())
		}
		return nil
	}
	if a.TimeMS > w.watermark || !w.started {
		w.watermark = a.TimeMS
		w.started = true
	}
	if a.Rows != nil && a.Rows.NumRows() > 0 {
		placed := false
		// One shared part per arrival: every window covering the batch
		// appends the same pointer, so the part's memoized hash — and
		// any chunk state cached under it — is shared across the
		// overlapping windows too.
		part := &windowPart{rows: a.Rows}
		for _, k := range w.indicesFor(a.TimeMS) {
			win, ok := w.open[k]
			if !ok {
				if w.closedBefore(k) {
					continue // window already emitted; this row is late
				}
				win = &closedWindow{
					index:   k,
					startMS: k * w.cfg.SlideMS,
					endMS:   k*w.cfg.SlideMS + w.cfg.WidthMS,
				}
				w.open[k] = win
			}
			win.parts = append(win.parts, part)
			win.rows += a.Rows.NumRows()
			placed = true
		}
		if !placed {
			w.lateRows += int64(a.Rows.NumRows())
		}
	}
	return w.drain(w.watermark)
}

// indicesFor returns the window indices covering time t: every k with
// k*slide <= t < k*slide + width. Negative times precede every window
// and yield nil; without that guard a sufficiently negative t (e.g.
// math.MinInt64) makes kMax - kMin + 1 negative — or overflows t -
// width outright — and the slice allocation panics with "makeslice:
// cap out of range".
func (w *windower) indicesFor(t int64) []int64 {
	if t < 0 {
		return nil
	}
	kMax := t / w.cfg.SlideMS
	kMin := (t-w.cfg.WidthMS)/w.cfg.SlideMS + 1
	if t < w.cfg.WidthMS {
		kMin = 0
	}
	out := make([]int64, 0, kMax-kMin+1)
	for k := kMin; k <= kMax; k++ {
		out = append(out, k)
	}
	return out
}

// closedBefore reports whether window k's end is already behind the
// watermark with the window gone from the open set (i.e. emitted).
func (w *windower) closedBefore(k int64) bool {
	return k*w.cfg.SlideMS+w.cfg.WidthMS <= w.watermark
}

// drain emits every open window whose end is at or before the
// watermark, oldest first.
func (w *windower) drain(watermark int64) []*closedWindow {
	var out []*closedWindow
	for k, win := range w.open {
		if win.endMS <= watermark {
			out = append(out, win)
			delete(w.open, k)
		}
	}
	sortWindows(out)
	return out
}

// flush force-closes every open window (the partial final windows of a
// finite stream), oldest first.
func (w *windower) flush() []*closedWindow {
	var out []*closedWindow
	for k, win := range w.open {
		out = append(out, win)
		delete(w.open, k)
	}
	sortWindows(out)
	return out
}

func sortWindows(ws []*closedWindow) {
	sort.Slice(ws, func(i, j int) bool { return ws[i].index < ws[j].index })
}
