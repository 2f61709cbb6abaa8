package dataset

import (
	"fmt"
	"sync"
	"testing"

	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// testFrame builds a small frame whose content (and therefore ref)
// varies with seed.
func testFrame(t testing.TB, seed, rows int) *frame.Frame {
	t.Helper()
	ids := make([]int64, rows)
	vs := make([]float64, rows)
	for i := range ids {
		ids[i] = int64(seed*1_000_000 + i)
		vs[i] = float64(seed) + float64(i)/7
	}
	return frame.MustNew(frame.NewInt64("id", ids), frame.NewFloat64("v", vs))
}

func TestPutResolveRoundTrip(t *testing.T) {
	r := NewRegistry(1 << 20)
	f := testFrame(t, 1, 100)
	meta, err := r.PutAs(tenant.Default, "credit", f)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Ref != f.Hash() {
		t.Fatalf("ref %q is not the content hash %q", meta.Ref, f.Hash())
	}
	if meta.Rows != 100 || meta.Cols != 2 || meta.Name != "credit" {
		t.Fatalf("meta = %+v", meta)
	}
	got, m, ok := r.ResolveAs(tenant.Default, meta.Ref)
	if !ok || got != f {
		t.Fatal("resolve did not return the resident frame")
	}
	if m.Hits != 1 {
		t.Fatalf("hits = %d", m.Hits)
	}
	if _, _, ok := r.ResolveAs(tenant.Default, "no-such-ref"); ok {
		t.Fatal("unknown ref resolved")
	}
	snap := r.Metrics()
	if snap.Resident != 1 || snap.Hits != 1 || snap.Misses != 1 || snap.Bytes != meta.Bytes {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestPutIdempotent(t *testing.T) {
	r := NewRegistry(1 << 20)
	f := testFrame(t, 1, 50)
	a, err := r.PutAs(tenant.Default, "first", f)
	if err != nil {
		t.Fatal(err)
	}
	// Identical content under a different handle: same ref, one
	// resident copy, the first name kept.
	b, err := r.PutAs(tenant.Default, "second", testFrame(t, 1, 50))
	if err != nil {
		t.Fatal(err)
	}
	if a.Ref != b.Ref || b.Name != "first" {
		t.Fatalf("re-upload meta = %+v, want ref %s name first", b, a.Ref)
	}
	if snap := r.Metrics(); snap.Resident != 1 {
		t.Fatalf("resident = %d after duplicate upload", snap.Resident)
	}
}

func TestBudgetEvictsLRU(t *testing.T) {
	f1, f2, f3 := testFrame(t, 1, 200), testFrame(t, 2, 200), testFrame(t, 3, 200)
	size := SizeOf(f1)
	r := NewRegistry(2*size + size/2) // room for two
	m1, err1 := r.PutAs(tenant.Default, "a", f1)
	m2, err2 := r.PutAs(tenant.Default, "b", f2)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	// Touch a so b is the least recently used.
	if _, _, ok := r.ResolveAs(tenant.Default, m1.Ref); !ok {
		t.Fatal("a missing")
	}
	m3, err := r.PutAs(tenant.Default, "c", f3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := r.ResolveAs(tenant.Default, m2.Ref); ok {
		t.Fatal("LRU entry b survived over-budget Put")
	}
	for _, ref := range []string{m1.Ref, m3.Ref} {
		if _, _, ok := r.ResolveAs(tenant.Default, ref); !ok {
			t.Fatalf("entry %s evicted wrongly", ref)
		}
	}
	snap := r.Metrics()
	if snap.Evictions != 1 || snap.Resident != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestPutLargerThanBudget(t *testing.T) {
	f := testFrame(t, 1, 1000)
	r := NewRegistry(SizeOf(f) / 2)
	if _, err := r.PutAs(tenant.Default, "big", f); err == nil {
		t.Fatal("over-budget dataset accepted")
	}
}

func TestPinnedSurvivesEviction(t *testing.T) {
	f1, f2, f3 := testFrame(t, 1, 200), testFrame(t, 2, 200), testFrame(t, 3, 200)
	size := SizeOf(f1)
	r := NewRegistry(2*size + size/2)
	m1, _ := r.PutAs(tenant.Default, "baseline", f1)
	if _, ok := r.PinAs(tenant.Default, m1.Ref); !ok {
		t.Fatal("pin failed")
	}
	if _, err := r.PutAs(tenant.Default, "b", f2); err != nil {
		t.Fatal(err)
	}
	// Pinned baseline is the LRU candidate but must be skipped.
	if _, err := r.PutAs(tenant.Default, "c", f3); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := r.ResolveAs(tenant.Default, m1.Ref); !ok {
		t.Fatal("pinned baseline evicted")
	}
	// Both unpinned entries pinned+current can't fit a third; the
	// pinned one must not be sacrificed either.
	if _, err := r.DeleteAs(tenant.Default, m1.Ref); err == nil {
		t.Fatal("pinned dataset deleted")
	}
	r.UnpinAs(tenant.Default, m1.Ref)
	if ok, err := r.DeleteAs(tenant.Default, m1.Ref); err != nil || !ok {
		t.Fatalf("delete after unpin: %v %v", ok, err)
	}
}

func TestAllPinnedOverBudget(t *testing.T) {
	f1, f2 := testFrame(t, 1, 200), testFrame(t, 2, 200)
	r := NewRegistry(SizeOf(f1) + SizeOf(f1)/2)
	m1, err := r.PutAs(tenant.Default, "a", f1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.PinAs(tenant.Default, m1.Ref); !ok {
		t.Fatal("pin failed")
	}
	if _, err := r.PutAs(tenant.Default, "b", f2); err == nil {
		t.Fatal("Put succeeded with the whole budget pinned")
	}
}

func TestListMostRecentFirst(t *testing.T) {
	r := NewRegistry(1 << 20)
	m1, _ := r.PutAs(tenant.Default, "a", testFrame(t, 1, 10))
	m2, _ := r.PutAs(tenant.Default, "b", testFrame(t, 2, 10))
	r.ResolveAs(tenant.Default, m1.Ref)
	list := r.ListAs(tenant.Default)
	if len(list) != 2 || list[0].Ref != m1.Ref || list[1].Ref != m2.Ref {
		t.Fatalf("list order = %+v", list)
	}
}

// TestConcurrentResolveVsEvict hammers resolves, pins, and
// eviction-forcing puts concurrently; under -race this is the
// eviction/resolve race check the registry must stay clean on.
func TestConcurrentResolveVsEvict(t *testing.T) {
	const workers = 8
	base := testFrame(t, 0, 300)
	r := NewRegistry(4 * SizeOf(base))
	pinned, err := r.PutAs(tenant.Default, "pinned", base)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.PinAs(tenant.Default, pinned.Ref); !ok {
		t.Fatal("pin failed")
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				f := testFrame(t, 1+w*100+i, 300)
				meta, err := r.PutAs(tenant.Default, fmt.Sprintf("w%d-%d", w, i), f)
				if err != nil {
					t.Error(err)
					return
				}
				// Resolve own and the pinned ref while other workers
				// force evictions.
				if got, _, ok := r.ResolveAs(tenant.Default, meta.Ref); ok && got.NumRows() != 300 {
					t.Error("resolved frame corrupted")
					return
				}
				got, _, ok := r.ResolveAs(tenant.Default, pinned.Ref)
				if !ok {
					t.Error("pinned dataset evicted during churn")
					return
				}
				if got != base {
					t.Error("pinned resolve returned wrong frame")
					return
				}
				if i%7 == 0 {
					if _, ok := r.PinAs(tenant.Default, meta.Ref); ok {
						r.UnpinAs(tenant.Default, meta.Ref)
					}
				}
			}
		}()
	}
	wg.Wait()
	snap := r.Metrics()
	if snap.Bytes > r.Budget() {
		t.Fatalf("resident bytes %d exceed budget %d", snap.Bytes, r.Budget())
	}
	if _, _, ok := r.ResolveAs(tenant.Default, pinned.Ref); !ok {
		t.Fatal("pinned dataset missing after churn")
	}
}

func TestSizeOfScalesWithRows(t *testing.T) {
	small := SizeOf(testFrame(t, 1, 100))
	large := SizeOf(testFrame(t, 1, 10_000))
	if large < 50*small/2 {
		t.Fatalf("SizeOf not roughly linear: %d vs %d", small, large)
	}
	withStrings := frame.MustNew(frame.NewString("s", []string{"aaaaaaaaaa", "bbbbbbbbbb"}))
	if SizeOf(withStrings) < 20 {
		t.Fatal("string payload not counted")
	}
}
