package monitor

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/store"
	"github.com/responsible-data-science/rds/internal/store/memory"
	"github.com/responsible-data-science/rds/internal/stream"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// persistRegistry builds a registry attached to st, with a dataset
// registry attached to the same store so baseline datasets survive the
// simulated restart too.
func persistRegistry(t *testing.T, st store.Store, sinks ...Sink) (*Registry, *dataset.Registry) {
	t.Helper()
	reg, datasets := newPersistRegistry(t, st, sinks...)
	if _, err := restore(reg, st); err != nil {
		t.Fatalf("AttachStore: %v", err)
	}
	return reg, datasets
}

// newPersistRegistry is persistRegistry before the monitor registry
// attaches st: the next life of a restart, left for restore.
func newPersistRegistry(t *testing.T, st store.Store, sinks ...Sink) (*Registry, *dataset.Registry) {
	t.Helper()
	datasets := dataset.NewRegistry(0)
	if err := datasets.AttachStore(st); err != nil {
		t.Fatalf("AttachStore: %v", err)
	}
	reg, err := NewRegistry(RegistryConfig{
		Engine:   newTestEngine(t),
		Datasets: datasets,
		Sinks:    sinks,
	})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	t.Cleanup(reg.Close)
	return reg, datasets
}

// restore attaches st to r, as a boot does, and reports how many
// monitors it restored.
func restore(r *Registry, st store.Store) (int, error) {
	err := r.AttachStore(st)
	return r.Metrics().MonitorsActive, err
}

// TestRestoreBaselineRefBitIdentity is the headline restart property:
// a monitor registered with a BaselineRef survives a restart — same
// id, spec, pinned baseline grade, re-pinned dataset — and its
// restored profile scores a window bit-identically to the original.
func TestRestoreBaselineRefBitIdentity(t *testing.T) {
	st := memory.New()
	r1, d1 := persistRegistry(t, st)
	base := creditFrame(t, 800, 0, 0.35, 1)
	meta, err := d1.PutAs(tenant.Default, "baseline", base)
	if err != nil {
		t.Fatal(err)
	}
	spec := creditSpec("persisted")
	spec.BaselineRef = meta.Ref
	m1, err := r1.Register(spec)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}

	r2, d2 := newPersistRegistry(t, st)
	n, err := restore(r2, st)
	if err != nil || n != 1 {
		t.Fatalf("Restore: (%d, %v), want (1, nil)", n, err)
	}
	m2, ok := r2.Get(m1.ID())
	if !ok {
		t.Fatalf("monitor %s not restored", m1.ID())
	}
	s := m2.Status()
	if s.Name != "persisted" || !s.BaselinePinned || s.Degraded {
		t.Fatalf("restored status %+v, want pinned, not degraded", s)
	}
	if s.BaselineGrade == nil || *s.BaselineGrade != *m1.Status().BaselineGrade {
		t.Fatalf("baseline grade %v, want %v", s.BaselineGrade, m1.Status().BaselineGrade)
	}
	if m2.Spec().BaselineRef != meta.Ref || m2.Spec().Seed != m1.Spec().Seed {
		t.Fatalf("restored spec %+v diverges from %+v", m2.Spec(), m1.Spec())
	}
	// The re-pin must hold in the restored dataset registry.
	if dm, ok := d2.GetAs(tenant.Default, meta.Ref); !ok || dm.Pins != 1 {
		t.Fatalf("baseline dataset pins = %+v, want 1 pin", dm)
	}

	// Bit-identity: the same probe window scores identically against
	// the original and the restored profile.
	probe := scaleColumn(t, creditFrame(t, 500, 0, 0.35, 7), "income", 1.8)
	rep1, err1 := DetectDriftProfiled(m1.profile, probe)
	rep2, err2 := DetectDriftProfiled(m2.profile, probe)
	if err1 != nil || err2 != nil {
		t.Fatalf("DetectDriftProfiled: %v / %v", err1, err2)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("drift reports diverge after restore:\n%+v\n%+v", rep1, rep2)
	}
}

// TestRestoreIgnoresRemovedShardsField: records persisted while the
// drift config still carried a shard count — "shards" inside the spec
// record's "drift" object and the profile record's "config" object —
// restore, and the restored profile scores exactly like the original.
func TestRestoreIgnoresRemovedShardsField(t *testing.T) {
	st := memory.New()
	r1, d1 := persistRegistry(t, st)
	meta, err := d1.PutAs(tenant.Default, "baseline", creditFrame(t, 800, 0, 0.35, 1))
	if err != nil {
		t.Fatal(err)
	}
	spec := creditSpec("legacy")
	spec.BaselineRef = meta.Ref
	m1, err := r1.Register(spec)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	for _, rec := range []struct {
		kind store.Kind
		obj  string
	}{{store.KindMonitor, "drift"}, {store.KindProfile, "config"}} {
		raw, ok, err := st.Find(rec.kind, m1.ID())
		if err != nil || !ok {
			t.Fatalf("%s record: (%v, %v)", rec.kind, ok, err)
		}
		open := `"` + rec.obj + `":{`
		legacy := strings.Replace(string(raw), open, open+`"shards":4,`, 1)
		if legacy == string(raw) {
			t.Fatalf("%s record has no %q object: %s", rec.kind, rec.obj, raw)
		}
		if err := st.Save(rec.kind, m1.ID(), []byte(legacy)); err != nil {
			t.Fatal(err)
		}
	}

	r2, _ := newPersistRegistry(t, st)
	if n, err := restore(r2, st); err != nil || n != 1 {
		t.Fatalf("Restore: (%d, %v), want (1, nil)", n, err)
	}
	m2, ok := r2.Get(m1.ID())
	if !ok || m2.profile == nil {
		t.Fatalf("monitor %s restored without its profile", m1.ID())
	}
	probe := scaleColumn(t, creditFrame(t, 500, 0, 0.35, 7), "income", 1.8)
	rep1, err1 := DetectDriftProfiled(m1.profile, probe)
	rep2, err2 := DetectDriftProfiled(m2.profile, probe)
	if err1 != nil || err2 != nil || !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("drift reports diverge after restore (%v / %v):\n%+v\n%+v", err1, err2, rep1, rep2)
	}
}

// TestRestoreStreamPinnedProfile proves the stream-pinned path
// persists too: a monitor whose baseline came from its first auditable
// window restores with that profile and keeps scoring bit-identically,
// without re-ingesting the baseline window.
func TestRestoreStreamPinnedProfile(t *testing.T) {
	st := memory.New()
	r1, _ := persistRegistry(t, st)
	m1, err := r1.Register(creditSpec("streamed"))
	if err != nil {
		t.Fatal(err)
	}
	data := creditFrame(t, 400, 0, 0.35, 1)
	if err := m1.Ingest(stream.Arrival{TimeMS: 0, Rows: data}, stream.Arrival{TimeMS: 100}); err != nil {
		t.Fatal(err)
	}
	if m1.profile == nil {
		t.Fatal("first window did not pin a baseline")
	}

	r2, _ := newPersistRegistry(t, st)
	if n, err := restore(r2, st); err != nil || n != 1 {
		t.Fatalf("Restore: (%d, %v)", n, err)
	}
	m2, _ := r2.Get(m1.ID())
	if m2 == nil || m2.profile == nil {
		t.Fatal("stream-pinned profile not restored")
	}
	probe := scaleColumn(t, creditFrame(t, 300, 0, 0.35, 9), "income", 2.5)
	rep1, _ := DetectDriftProfiled(m1.profile, probe)
	rep2, _ := DetectDriftProfiled(m2.profile, probe)
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("stream-pinned drift reports diverge:\n%+v\n%+v", rep1, rep2)
	}
	if !rep2.Breached {
		t.Fatal("probe window should breach (sanity check)")
	}
}

// TestRestoreDegradedMissingBaseline pins satellite 3: a restored
// monitor whose BaselineRef dataset is gone degrades gracefully — it
// stays registered, reports Degraded, fans out AlertBaselineMissing,
// and (with a persisted profile) keeps scoring — instead of panicking
// or silently dropping.
func TestRestoreDegradedMissingBaseline(t *testing.T) {
	st := memory.New()
	r1, d1 := persistRegistry(t, st)
	base := creditFrame(t, 600, 0, 0.35, 1)
	meta, err := d1.PutAs(tenant.Default, "baseline", base)
	if err != nil {
		t.Fatal(err)
	}
	spec := creditSpec("degrading")
	spec.BaselineRef = meta.Ref
	m1, err := r1.Register(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate the dataset evicted while down: a restart whose dataset
	// registry never sees the store, so the ref resolves to nothing.
	sink := &captureSink{}
	reg2, err := NewRegistry(RegistryConfig{
		Engine:   newTestEngine(t),
		Datasets: dataset.NewRegistry(0),
		Sinks:    []Sink{sink},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg2.Close)
	if n, err := restore(reg2, st); err != nil || n != 1 {
		t.Fatalf("Restore: (%d, %v), want the monitor restored degraded", n, err)
	}
	m2, ok := reg2.Get(m1.ID())
	if !ok {
		t.Fatal("degraded monitor was dropped")
	}
	s := m2.Status()
	if !s.Degraded {
		t.Fatalf("status %+v, want Degraded", s)
	}
	found := false
	for _, k := range sink.kinds() {
		if k == AlertBaselineMissing {
			found = true
		}
	}
	if !found {
		t.Fatalf("alerts %v, want an AlertBaselineMissing", sink.kinds())
	}
	// The persisted profile still scores windows.
	if m2.profile == nil {
		t.Fatal("persisted profile lost in degraded restore")
	}
	if err := m2.Ingest(stream.Arrival{TimeMS: 0, Rows: creditFrame(t, 300, 0, 0.35, 3)}, stream.Arrival{TimeMS: 100}); err != nil {
		t.Fatalf("degraded monitor cannot ingest: %v", err)
	}
	hist := m2.History()
	if len(hist) == 0 || hist[len(hist)-1].Drift == nil {
		t.Fatalf("degraded monitor did not drift-score its window: %+v", hist)
	}
}

// TestRestoreDegradedOverHTTP proves the degraded state is visible to
// operators through the HTTP surface.
func TestRestoreDegradedOverHTTP(t *testing.T) {
	st := memory.New()
	r1, d1 := persistRegistry(t, st)
	meta, err := d1.PutAs(tenant.Default, "baseline", creditFrame(t, 600, 0, 0.35, 1))
	if err != nil {
		t.Fatal(err)
	}
	spec := creditSpec("web-degraded")
	spec.BaselineRef = meta.Ref
	if _, err := r1.Register(spec); err != nil {
		t.Fatal(err)
	}

	reg2, err := NewRegistry(RegistryConfig{
		Engine:   newTestEngine(t),
		Datasets: dataset.NewRegistry(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg2.Close)
	if _, err := restore(reg2, st); err != nil {
		t.Fatal(err)
	}
	handler := serve.NewHandler(newTestEngine(t))
	srv := httptest.NewServer(handler.Mount(NewHandler(reg2).Routes()))
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL + "/v1/monitors")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	compact := strings.ReplaceAll(string(body), " ", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(compact, `"degraded":true`) {
		t.Fatalf("GET /v1/monitors = %d %s, want degraded:true", resp.StatusCode, body)
	}
}

// TestRestoreSeqAdvances proves restored ids cannot collide with new
// registrations: the sequence resumes past the highest restored id.
func TestRestoreSeqAdvances(t *testing.T) {
	st := memory.New()
	r1, _ := persistRegistry(t, st)
	m1, err := r1.Register(creditSpec("first"))
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := newPersistRegistry(t, st)
	if _, err := restore(r2, st); err != nil {
		t.Fatal(err)
	}
	m2, err := r2.Register(creditSpec("second"))
	if err != nil {
		t.Fatal(err)
	}
	if m2.ID() <= m1.ID() {
		t.Fatalf("post-restore id %s does not advance past restored %s", m2.ID(), m1.ID())
	}
}

// TestDeleteDropsPersisted proves a deleted monitor does not resurface
// on restart.
func TestDeleteDropsPersisted(t *testing.T) {
	st := memory.New()
	r1, _ := persistRegistry(t, st)
	m1, err := r1.Register(creditSpec("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Delete(m1.ID()) {
		t.Fatal("Delete failed")
	}
	r2, _ := newPersistRegistry(t, st)
	if n, err := restore(r2, st); err != nil || n != 0 {
		t.Fatalf("Restore after delete: (%d, %v), want (0, nil)", n, err)
	}
}

// TestRestoreRefusesCorrupt proves damaged records refuse to restore
// instead of silently dropping monitors.
func TestRestoreRefusesCorrupt(t *testing.T) {
	t.Run("spec", func(t *testing.T) {
		st := memory.New()
		r1, _ := persistRegistry(t, st)
		m1, err := r1.Register(creditSpec("tampered"))
		if err != nil {
			t.Fatal(err)
		}
		if !st.Corrupt(store.KindMonitor, m1.ID()) {
			t.Fatal("no record to corrupt")
		}
		r2, _ := newPersistRegistry(t, st)
		if _, err := restore(r2, st); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("Restore over corrupt spec: %v, want ErrCorrupt", err)
		}
	})
	t.Run("profile", func(t *testing.T) {
		st := memory.New()
		r1, _ := persistRegistry(t, st)
		m1, err := r1.Register(creditSpec("tampered-profile"))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Save(store.KindProfile, m1.ID(), []byte(`{"rows":-3}`)); err != nil {
			t.Fatal(err)
		}
		r2, _ := newPersistRegistry(t, st)
		if _, err := restore(r2, st); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("Restore over corrupt profile: %v, want ErrCorrupt", err)
		}
	})
}

// TestProfileCodecRoundTrip unit-tests the profile codec in isolation:
// the decoded profile's derived state (edges, histogram, level counts)
// matches the original exactly.
func TestProfileCodecRoundTrip(t *testing.T) {
	base := creditFrame(t, 1000, 0, 0.35, 1)
	p1, err := NewBaselineProfile(base, DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := encodeProfile(p1, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := decodeProfile(payload)
	if err != nil {
		t.Fatal(err)
	}
	if p2.rows != p1.rows || len(p2.cols) != len(p1.cols) {
		t.Fatalf("shape mismatch: %d/%d cols, %d/%d rows", len(p2.cols), len(p1.cols), p2.rows, p1.rows)
	}
	for i := range p1.cols {
		a, b := &p1.cols[i], &p2.cols[i]
		if a.name != b.name || a.numeric != b.numeric || a.present != b.present || a.dtype != b.dtype {
			t.Fatalf("column %d identity mismatch: %+v vs %+v", i, a, b)
		}
		if !reflect.DeepEqual(a.sorted, b.sorted) || !reflect.DeepEqual(a.edges, b.edges) || !reflect.DeepEqual(a.hist, b.hist) {
			t.Fatalf("column %q numeric state diverged", a.name)
		}
		if a.levels != nil && !reflect.DeepEqual(a.levels.Counts, b.levels.Counts) {
			t.Fatalf("column %q level counts diverged", a.name)
		}
	}
	if p1.build-p2.build > time.Millisecond || p2.build-p1.build > time.Millisecond {
		t.Fatalf("build time diverged: %v vs %v", p1.build, p2.build)
	}
}
