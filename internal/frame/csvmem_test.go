package frame

// ReadCSV reads its input once and parses it in place, so loading a
// large CSV costs the input, one string header per cell and the column
// values, not the [][]string record matrix csv.ReadAll materializes.
// This file keeps a csv.ReadAll loader as a test-only reference and
// checks that ReadCSV allocates well below it — the "max-RSS" guard the
// CI bench smoke runs.

import (
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

// readCSVBuffered is ReadCSV done with csv.ReadAll over the whole file,
// under the same trimming rules, kept only as the memory baseline
// ReadCSV is compared against.
func readCSVBuffered(r io.Reader) (*Frame, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("frame: reading csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("frame: csv has no header row")
	}
	header := records[0]
	rows := records[1:]
	cols := make([]*Series, len(header))
	for j, name := range header {
		raw := make([]string, len(rows))
		for i, rec := range rows {
			raw[i] = strings.TrimSpace(rec[j])
		}
		cols[j] = inferSeries(strings.TrimSpace(name), raw)
	}
	return New(cols...)
}

// loadFixtureCSV renders a mixed-type CSV of n rows for the memory
// comparison.
func loadFixtureCSV(n int) string {
	var b strings.Builder
	b.WriteString("id,score,group,ok\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,%.3f,g%d,%v\n", i, float64(i)/3, i%5, i%2 == 0)
	}
	return b.String()
}

// allocDelta runs load once and returns the bytes it allocated
// (TotalAlloc delta; package tests run sequentially, so no other
// goroutine muddies the counter).
func allocDelta(t *testing.T, text string, load func(io.Reader) (*Frame, error)) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f, err := load(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(f)
	return after.TotalAlloc - before.TotalAlloc
}

func TestStreamingLoadAllocsBelowBuffered(t *testing.T) {
	const rows = 100_000
	text := loadFixtureCSV(rows)

	stream, err := ReadCSV(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	buffered, err := readCSVBuffered(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !stream.Equal(buffered) {
		t.Fatal("streaming and buffered loads disagree on content")
	}

	streamBytes := allocDelta(t, text, ReadCSV)
	bufferedBytes := allocDelta(t, text, readCSVBuffered)
	t.Logf("streaming allocated %d bytes, buffered %d (%.0f%%)",
		streamBytes, bufferedBytes, 100*float64(streamBytes)/float64(bufferedBytes))
	// Require real headroom, not a rounding win: the record matrix the
	// buffered path materializes is ~rows*(cols+1) slice/string headers.
	if float64(streamBytes) >= 0.8*float64(bufferedBytes) {
		t.Fatalf("streaming load allocated %d bytes, want well below buffered %d",
			streamBytes, bufferedBytes)
	}
}

// BenchmarkCSVLoad compares ReadCSV against the csv.ReadAll reference
// at 100k rows; -benchmem makes the allocation gap visible
// in the CI bench smoke.
func BenchmarkCSVLoad(b *testing.B) {
	text := loadFixtureCSV(100_000)
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ReadCSV(strings.NewReader(text)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("buffered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := readCSVBuffered(strings.NewReader(text)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
