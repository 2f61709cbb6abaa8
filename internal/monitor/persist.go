package monitor

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/exec"
	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/policy"
	"github.com/responsible-data-science/rds/internal/store"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// Persistence. Once AttachStore adopts a store, the registry keeps two
// durable records per monitor, both keyed by monitor id: the spec
// (store.KindMonitor) and, once a baseline is pinned, the baseline
// profile (store.KindProfile). A restart then restores every monitor
// via AttachStore: specs are decoded, profiles rebuilt, and baseline
// datasets re-pinned in the dataset registry.
//
// The profile record persists only the irreducible baseline state —
// the sorted finite sample per numeric column and the level counts per
// categorical column. Everything else drift scoring consumes (PSI
// edges, baseline histogram, summary moments) is recomputed from that
// sample at decode time by the function the original build used
// (profileColumn.setSample), so a restored profile scores every window
// bit-identically to the profile it was saved from: finite float64s
// round-trip JSON exactly, and setSample is deterministic in its
// inputs.
//
// What does not survive a restart: in-flight windower state (rows of
// partially filled windows), the bounded window history, per-monitor
// counters, and non-webhook alert sinks (a Sink is arbitrary process
// state; only WebhookSink, being pure config, is persisted).

// specDoc is the persisted form of a monitor Spec. Unlike the HTTP
// wire form it carries the full TrainSpec (Exclude included) and the
// effective defaulted values, so a restored monitor behaves exactly
// like the one that was running.
type specDoc struct {
	Name string `json:"name"`
	// Tenant is the owning tenant (omitted for the default tenant,
	// keeping pre-multi-tenant state directories readable). Ownership
	// lives on the resource record itself, not in a separate list, so
	// a crash cannot leave spec and ownership disagreeing.
	Tenant         string            `json:"tenant,omitempty"`
	Policy         policy.FACTPolicy `json:"policy"`
	Train          core.TrainSpec    `json:"train"`
	Seed           uint64            `json:"seed,omitempty"`
	Window         WindowConfig      `json:"window"`
	Drift          DriftConfig       `json:"drift"`
	BaselineRef    string            `json:"baseline_ref,omitempty"`
	AuditEvery     int               `json:"audit_every,omitempty"`
	ReauditEveryMS int64             `json:"reaudit_every_ms,omitempty"`
	History        int               `json:"history,omitempty"`
	Webhooks       []string          `json:"webhooks,omitempty"`
}

// specDocFrom captures spec's persistable state. Webhook sinks are
// kept by URL; any other sink implementation is process-local state
// and is dropped from the durable record.
func specDocFrom(spec Spec) specDoc {
	doc := specDoc{
		Name:           spec.Name,
		Policy:         spec.Policy,
		Train:          spec.Train,
		Seed:           spec.Seed,
		Window:         spec.Window,
		Drift:          spec.Drift,
		BaselineRef:    spec.BaselineRef,
		AuditEvery:     spec.AuditEvery,
		ReauditEveryMS: spec.ReauditEvery.Milliseconds(),
		History:        spec.History,
	}
	if spec.Tenant != tenant.Default {
		doc.Tenant = spec.Tenant
	}
	for _, s := range spec.Sinks {
		if w, ok := s.(*WebhookSink); ok {
			doc.Webhooks = append(doc.Webhooks, w.URL)
		}
	}
	return doc
}

// spec rebuilds the monitor Spec.
func (d specDoc) spec() Spec {
	spec := Spec{
		Name:         d.Name,
		Tenant:       d.Tenant,
		Policy:       d.Policy,
		Train:        d.Train,
		Seed:         d.Seed,
		Window:       d.Window,
		Drift:        d.Drift,
		BaselineRef:  d.BaselineRef,
		AuditEvery:   d.AuditEvery,
		ReauditEvery: time.Duration(d.ReauditEveryMS) * time.Millisecond,
		History:      d.History,
	}
	for _, u := range d.Webhooks {
		spec.Sinks = append(spec.Sinks, &WebhookSink{URL: u})
	}
	return spec
}

// profileDoc is the persisted form of a pinned baseline profile plus
// the baseline grade it was audited at.
type profileDoc struct {
	Grade       *policy.Grade      `json:"baseline_grade,omitempty"`
	Config      DriftConfig        `json:"config"`
	Rows        int                `json:"rows"`
	BuildMillis float64            `json:"build_millis"`
	Columns     []profileColumnDoc `json:"columns"`
}

// profileColumnDoc is one column's persisted baseline state: the
// sorted finite sample (numeric) or the level counts (categorical).
// Edges, histogram, and moments are recomputed at decode time.
type profileColumnDoc struct {
	Name    string           `json:"name"`
	Present bool             `json:"present,omitempty"`
	Numeric bool             `json:"numeric,omitempty"`
	DType   string           `json:"dtype,omitempty"`
	Sorted  []float64        `json:"sorted,omitempty"`
	Levels  map[string]int64 `json:"levels,omitempty"`
}

// dtypeNames maps the persisted dtype spellings back to frame.DType.
var dtypeNames = map[string]frame.DType{
	frame.Float64.String(): frame.Float64,
	frame.Int64.String():   frame.Int64,
	frame.String.String():  frame.String,
	frame.Bool.String():    frame.Bool,
}

// encodeProfile serializes p and its baseline grade.
func encodeProfile(p *BaselineProfile, grade *policy.Grade) ([]byte, error) {
	doc := profileDoc{
		Grade:       grade,
		Config:      p.cfg,
		Rows:        p.rows,
		BuildMillis: float64(p.build) / float64(time.Millisecond),
		Columns:     make([]profileColumnDoc, 0, len(p.cols)),
	}
	for i := range p.cols {
		pc := &p.cols[i]
		cd := profileColumnDoc{Name: pc.name, Present: pc.present, Numeric: pc.numeric}
		if pc.present {
			cd.DType = pc.dtype.String()
		}
		if pc.numeric {
			cd.Sorted = pc.sorted
		} else if pc.levels != nil {
			cd.Levels = pc.levels.Counts
		}
		doc.Columns = append(doc.Columns, cd)
	}
	return json.Marshal(doc)
}

// decodeProfile rebuilds a BaselineProfile (and its baseline grade)
// from encodeProfile's output, recomputing the derived per-column
// state. The persisted sample is validated — ascending, finite — so a
// tampered record is refused as corrupt rather than silently producing
// wrong drift scores.
func decodeProfile(payload []byte) (*BaselineProfile, *policy.Grade, error) {
	var doc profileDoc
	if err := json.Unmarshal(payload, &doc); err != nil {
		return nil, nil, fmt.Errorf("%w: decoding profile: %v", store.ErrCorrupt, err)
	}
	if doc.Rows <= 0 {
		return nil, nil, fmt.Errorf("%w: profile has row count %d", store.ErrCorrupt, doc.Rows)
	}
	cfg := doc.Config.withDefaults()
	p := &BaselineProfile{
		cfg:   cfg,
		rows:  doc.Rows,
		cols:  make([]profileColumn, 0, len(doc.Columns)),
		build: time.Duration(doc.BuildMillis * float64(time.Millisecond)),
	}
	for _, cd := range doc.Columns {
		pc := profileColumn{name: cd.Name, present: cd.Present, numeric: cd.Numeric}
		if cd.Present {
			dt, ok := dtypeNames[cd.DType]
			if !ok {
				return nil, nil, fmt.Errorf("%w: profile column %q has unknown dtype %q", store.ErrCorrupt, cd.Name, cd.DType)
			}
			pc.dtype = dt
		}
		switch {
		case !cd.Present:
		case cd.Numeric:
			for i, v := range cd.Sorted {
				if math.IsNaN(v) || math.IsInf(v, 0) || (i > 0 && v < cd.Sorted[i-1]) {
					return nil, nil, fmt.Errorf("%w: profile column %q sample is not sorted finite", store.ErrCorrupt, cd.Name)
				}
			}
			if err := pc.setSample(cd.Sorted, cfg.Bins); err != nil {
				return nil, nil, fmt.Errorf("monitor: rebuilding profile column %q: %w", cd.Name, err)
			}
		default:
			counts := map[string]int64{}
			for k, v := range cd.Levels {
				if v < 0 {
					return nil, nil, fmt.Errorf("%w: profile column %q has negative level count", store.ErrCorrupt, cd.Name)
				}
				counts[k] = v
			}
			pc.levels = &exec.Levels{Counts: counts}
		}
		p.cols = append(p.cols, pc)
	}
	return p, doc.Grade, nil
}

// attached returns the store AttachStore adopted (nil before).
func (r *Registry) attached() store.Store {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st
}

// persistSpec writes m's spec record; a nil store is a no-op.
func (r *Registry) persistSpec(m *Monitor) error {
	st := r.attached()
	if st == nil {
		return nil
	}
	payload, err := json.Marshal(specDocFrom(m.spec))
	if err != nil {
		return err
	}
	return st.Save(store.KindMonitor, m.id, payload)
}

// persistProfileLocked writes m's profile record; callers hold
// m.procMu. A nil store or an unpinned profile is a no-op.
func (r *Registry) persistProfileLocked(m *Monitor) error {
	st := r.attached()
	if st == nil || m.profile == nil {
		return nil
	}
	m.mu.Lock()
	grade := m.baseGrade
	m.mu.Unlock()
	payload, err := encodeProfile(m.profile, grade)
	if err != nil {
		return err
	}
	return st.Save(store.KindProfile, m.id, payload)
}

// dropPersisted removes m's durable records after deletion, counting
// (not propagating) failures: the monitor is already gone from the
// live registry and the worst case of a leftover record is a spurious
// restore on the next boot.
func (r *Registry) dropPersisted(id string) {
	st := r.attached()
	if st == nil {
		return
	}
	if err := st.Delete(store.KindMonitor, id); err != nil {
		r.metrics.bump(&r.metrics.persistFailures, 1)
	}
	if err := st.Delete(store.KindProfile, id); err != nil {
		r.metrics.bump(&r.metrics.persistFailures, 1)
	}
}

// AttachStore adopts st as the registry's durability port, rebuilds
// every persisted monitor into the registry, and persists every later
// change. Call it once at boot, after the dataset registry has
// restored its resident set (restored monitors re-pin their baseline
// datasets) and before serving traffic.
//
// A corrupt record — an undecodable spec, a profile that fails
// validation — aborts the restore with an error wrapping
// store.ErrCorrupt: damaged state refuses to start rather than
// silently dropping monitors. A missing baseline dataset is different:
// the monitor is restored degraded (Summary.Degraded, an
// AlertBaselineMissing fan-out) with whatever persisted profile it
// has, because a dataset evicted while the process was down is an
// operational condition, not corruption.
func (r *Registry) AttachStore(st store.Store) error {
	items, err := st.List(store.KindMonitor)
	if err != nil {
		return fmt.Errorf("monitor: restoring registry: %w", err)
	}
	r.mu.Lock()
	r.st = st
	r.mu.Unlock()
	var maxSeq uint64
	for _, it := range items {
		var doc specDoc
		if err := json.Unmarshal(it.Payload, &doc); err != nil {
			return fmt.Errorf("monitor: restoring %s: %w: %v", it.ID, store.ErrCorrupt, err)
		}
		spec := doc.spec().withDefaults()
		ten, terr := tenant.Normalize(doc.Tenant)
		if terr != nil {
			return fmt.Errorf("monitor: restoring %s: %w: %v", it.ID, store.ErrCorrupt, terr)
		}
		spec.Tenant = ten
		m := &Monitor{
			id:   it.ID,
			spec: spec,
			reg:  r,
			win:  newWindower(spec.Window),
			stop: make(chan struct{}),
		}

		praw, ok, err := st.Find(store.KindProfile, it.ID)
		if err != nil {
			return fmt.Errorf("monitor: restoring %s profile: %w", it.ID, err)
		}
		if ok {
			prof, grade, derr := decodeProfile(praw)
			if derr != nil {
				return fmt.Errorf("monitor: restoring %s profile: %w", it.ID, derr)
			}
			m.installProfile(prof, grade)
		}

		if spec.BaselineRef != "" {
			if err := r.repinBaseline(m); err != nil {
				return err
			}
		}

		r.mu.Lock()
		// A restore enforces name uniqueness but not the MaxMonitors
		// quota: a quota lowered between boots must not refuse to
		// restore monitors that were registered legitimately.
		if _, err := r.checkRestorableLocked(spec.Tenant, spec.Name); err != nil {
			r.mu.Unlock()
			m.stopSchedule()
			m.releasePin()
			return fmt.Errorf("monitor: restoring %s: %w", it.ID, err)
		}
		r.monitors[m.id] = m
		r.mu.Unlock()
		r.metrics.bump(&r.metrics.monitorsTotal, 1)

		var n uint64
		if _, err := fmt.Sscanf(it.ID, "mon-%d", &n); err == nil && n > maxSeq {
			maxSeq = n
		}
		if spec.ReauditEvery > 0 {
			go m.reauditLoop(spec.ReauditEvery)
		}
	}
	r.mu.Lock()
	if maxSeq > r.seq {
		r.seq = maxSeq
	}
	r.mu.Unlock()
	return nil
}

// repinBaseline re-pins a restored monitor's baseline dataset. A
// missing dataset degrades the monitor instead of failing the restore:
// the degraded flag is set, an AlertBaselineMissing fans out, and any
// persisted profile keeps scoring windows. A present dataset with no
// persisted profile is re-audited exactly like a fresh registration;
// an audit failure likewise degrades rather than drops the monitor.
func (r *Registry) repinBaseline(m *Monitor) error {
	ref := m.spec.BaselineRef
	if r.cfg.Datasets != nil {
		if f, ok := r.cfg.Datasets.PinAs(m.spec.Tenant, ref); ok {
			if m.profile != nil {
				return nil
			}
			if err := m.pinBaseline(f, ref); err != nil {
				m.releasePin()
				m.setDegraded(fmt.Sprintf("baseline_ref %q re-audit failed after restart: %v; monitor unpinned until data arrives", ref, err))
				return nil
			}
			m.procMu.Lock()
			perr := r.persistProfileLocked(m)
			m.procMu.Unlock()
			if perr != nil {
				r.metrics.bump(&r.metrics.persistFailures, 1)
			}
			return nil
		}
	}
	// Pin never taken: spend the releaseOnce so a later Delete/Close
	// cannot unpin a ref this monitor does not hold.
	m.releaseOnce.Do(func() {})
	reason := fmt.Sprintf("baseline_ref %q is not resident after restart; re-upload the dataset and re-register to re-pin", ref)
	if m.profile != nil {
		reason = fmt.Sprintf("baseline_ref %q is not resident after restart; drift scoring continues on the persisted profile", ref)
	}
	m.setDegraded(reason)
	return nil
}

// setDegraded marks the monitor degraded and fans out the
// AlertBaselineMissing explaining why.
func (m *Monitor) setDegraded(reason string) {
	m.mu.Lock()
	m.degraded = true
	m.mu.Unlock()
	m.alert(Alert{Kind: AlertBaselineMissing, Window: -1, Message: reason})
}
