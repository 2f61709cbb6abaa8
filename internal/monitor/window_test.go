package monitor

import (
	"math"
	"testing"

	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/stream"
)

func rowsFrame(t testing.TB, vals ...float64) *frame.Frame {
	t.Helper()
	return frame.MustNew(frame.NewFloat64("x", vals))
}

func TestWindowerTumblingAssignsAndCloses(t *testing.T) {
	w := newWindower(WindowConfig{WidthMS: 100}.withDefaults())
	if closed := w.observe(stream.Arrival{TimeMS: 10, Rows: rowsFrame(t, 1, 2)}); len(closed) != 0 {
		t.Fatalf("window closed prematurely: %+v", closed)
	}
	if closed := w.observe(stream.Arrival{TimeMS: 90, Rows: rowsFrame(t, 3)}); len(closed) != 0 {
		t.Fatalf("window closed prematurely at t=90")
	}
	// t=100 is the first instant past window 0's [0,100).
	closed := w.observe(stream.Arrival{TimeMS: 100, Rows: rowsFrame(t, 4)})
	if len(closed) != 1 {
		t.Fatalf("got %d closed windows, want 1", len(closed))
	}
	win := closed[0]
	if win.index != 0 || win.startMS != 0 || win.endMS != 100 {
		t.Errorf("window bounds = (%d, %d, %d), want (0, 0, 100)", win.index, win.startMS, win.endMS)
	}
	if win.rows != 3 {
		t.Errorf("window rows = %d, want 3", win.rows)
	}
	f, err := materializeChunks(win.chunks(), win.index)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	if f.NumRows() != 3 {
		t.Errorf("materialized rows = %d, want 3", f.NumRows())
	}
}

func TestWindowerEmptyArrivalIsHeartbeat(t *testing.T) {
	w := newWindower(WindowConfig{WidthMS: 100}.withDefaults())
	w.observe(stream.Arrival{TimeMS: 5, Rows: rowsFrame(t, 1)})
	// A rowless arrival only advances the watermark — it must still
	// close window 0, and must not open an empty window of its own.
	closed := w.observe(stream.Arrival{TimeMS: 250})
	if len(closed) != 1 {
		t.Fatalf("heartbeat closed %d windows, want 1", len(closed))
	}
	if len(w.open) != 0 {
		t.Errorf("heartbeat left %d windows open, want 0", len(w.open))
	}
	if closed[0].rows != 1 {
		t.Errorf("closed window rows = %d, want 1", closed[0].rows)
	}
}

func TestWindowerFlushEmitsPartialFinalWindow(t *testing.T) {
	w := newWindower(WindowConfig{WidthMS: 100}.withDefaults())
	w.observe(stream.Arrival{TimeMS: 120, Rows: rowsFrame(t, 1, 2)})
	closed := w.flush()
	if len(closed) != 1 {
		t.Fatalf("flush emitted %d windows, want 1", len(closed))
	}
	if closed[0].index != 1 || closed[0].rows != 2 {
		t.Errorf("partial window = index %d rows %d, want index 1 rows 2", closed[0].index, closed[0].rows)
	}
	if again := w.flush(); len(again) != 0 {
		t.Errorf("second flush emitted %d windows, want 0", len(again))
	}
}

func TestWindowerSlidingOverlap(t *testing.T) {
	// Width 100, slide 50: t=60 belongs to window 0 [0,100) and
	// window 1 [50,150).
	w := newWindower(WindowConfig{WidthMS: 100, SlideMS: 50}.withDefaults())
	w.observe(stream.Arrival{TimeMS: 60, Rows: rowsFrame(t, 1)})
	closed := w.observe(stream.Arrival{TimeMS: 200, Rows: rowsFrame(t, 2)})
	var got []int64
	rows := map[int64]int{}
	for _, c := range closed {
		got = append(got, c.index)
		rows[c.index] = c.rows
	}
	if len(closed) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("closed windows = %v, want [0 1]", got)
	}
	if rows[0] != 1 || rows[1] != 1 {
		t.Errorf("row counts = %v, want 1 in each overlapping window", rows)
	}
}

func TestWindowerSlideBeyondWidthRejected(t *testing.T) {
	cfg := WindowConfig{WidthMS: 100, SlideMS: 200}.withDefaults()
	if err := cfg.validate(); err == nil {
		t.Fatal("slide > width validated; rows between windows would be silently dropped")
	}
}

func TestWindowerLateRowsDropped(t *testing.T) {
	w := newWindower(WindowConfig{WidthMS: 100}.withDefaults())
	w.observe(stream.Arrival{TimeMS: 10, Rows: rowsFrame(t, 1)})
	w.observe(stream.Arrival{TimeMS: 150, Rows: rowsFrame(t, 2)}) // closes window 0
	// t=20 targets only window 0, which is already emitted.
	w.observe(stream.Arrival{TimeMS: 20, Rows: rowsFrame(t, 3)})
	if w.lateRows != 1 {
		t.Errorf("lateRows = %d, want 1", w.lateRows)
	}
}

// TestWindowerNegativeTimeNeverPanics is the regression test for the
// negative-time_ms crash: indicesFor used to compute a negative slice
// capacity for sufficiently negative times ("makeslice: cap out of
// range", with int64 overflow in the kMin arithmetic near MinInt64) and
// mis-assigned slightly negative times into window 0. Every negative
// time now maps to no window: the rows are dropped as late and the
// watermark never moves.
func TestWindowerNegativeTimeNeverPanics(t *testing.T) {
	for _, cfg := range []WindowConfig{
		{WidthMS: 100},              // tumbling
		{WidthMS: 100, SlideMS: 40}, // sliding
	} {
		w := newWindower(cfg.withDefaults())
		for _, tm := range []int64{-1, -99, -100, -1_000_000, math.MinInt64 + 1, math.MinInt64} {
			if got := w.indicesFor(tm); got != nil {
				t.Errorf("indicesFor(%d) = %v, want nil (no window precedes t=0)", tm, got)
			}
			closed := w.observe(stream.Arrival{TimeMS: tm, Rows: rowsFrame(t, 1)})
			if len(closed) != 0 {
				t.Errorf("observe(t=%d) closed %d windows, want 0", tm, len(closed))
			}
		}
		if w.lateRows != 6 {
			t.Errorf("lateRows = %d, want 6 (every negative-time row dropped as late)", w.lateRows)
		}
		if len(w.open) != 0 {
			t.Errorf("negative times opened %d windows, want 0", len(w.open))
		}
		if w.started || w.watermark != 0 {
			t.Errorf("negative times moved the watermark: started=%v watermark=%d", w.started, w.watermark)
		}
		// The stream still works normally afterwards.
		w.observe(stream.Arrival{TimeMS: 10, Rows: rowsFrame(t, 1)})
		if closed := w.observe(stream.Arrival{TimeMS: 250}); len(closed) == 0 {
			t.Error("windower broken after negative-time arrivals: nothing closes")
		}
	}
}

func TestClosedWindowMaterializeEmpty(t *testing.T) {
	win := &closedWindow{index: 0, startMS: 0, endMS: 100}
	f, err := materializeChunks(win.chunks(), win.index)
	if err != nil {
		t.Fatalf("materialize empty: %v", err)
	}
	if f != nil {
		t.Errorf("empty window materialized %d rows, want nil", f.NumRows())
	}
}
