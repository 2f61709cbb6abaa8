package pipeline

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/store"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// maxFinishedRecords bounds how many finished pipeline records the
// registry (and the store) retain; the oldest finished runs are pruned
// past it so an always-on service cannot grow without limit. Live runs
// are never pruned.
const maxFinishedRecords = 256

// Registry owns the pipeline plane: it validates specs, pins the
// dataset, submits runs to the serve engine as multi-stage jobs, mirrors
// every stage completion into durable records (store.KindPipelines),
// and — via AttachStore at boot — resumes interrupted runs at their
// last completed stage. Safe for concurrent use.
type Registry struct {
	engine   *serve.Engine
	datasets *dataset.Registry
	quotas   func(string) tenant.Quotas

	mu   sync.Mutex
	st   store.Store
	recs map[string]*Record
	// order lists record ids oldest-first for bounded pruning.
	order []string
	seq   uint64
}

// NewRegistry builds the pipeline plane over the serve engine and the
// dataset registry. quotas resolves tenant quotas (nil = unlimited).
func NewRegistry(engine *serve.Engine, datasets *dataset.Registry, quotas func(string) tenant.Quotas) *Registry {
	if quotas == nil {
		quotas = func(string) tenant.Quotas { return tenant.Quotas{} }
	}
	return &Registry{
		engine:   engine,
		datasets: datasets,
		quotas:   quotas,
		recs:     map[string]*Record{},
	}
}

// persistLocked writes rec through the store port (no-op without one).
// Callers hold r.mu; the write happens before the record's new state is
// observable through Get/List, and — because the engine runs the
// OnStage hook synchronously — before the run's next stage executes:
// durable before visible.
func (r *Registry) persistLocked(rec *Record) error {
	if r.st == nil {
		return nil
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return r.st.Save(store.KindPipelines, rec.ID, payload)
}

// Submit validates spec, resolves its dataset ref among tenant ten's
// (empty selects the default tenant), persists the new run, and
// enqueues its stages. The dataset is not pinned: the run
// keeps the resolved frame in memory, and after a restart it resumes
// only if the dataset is still resident. The returned record is the
// run's initial snapshot. Admission rejections are serve *RetryError
// values (429/503 semantics); quota exhaustion (MaxPipelines counts the
// tenant's non-terminal records) wraps tenant.ErrQuota.
func (r *Registry) Submit(ten string, spec Spec) (*Record, error) {
	ten, err := tenant.Normalize(ten)
	if err != nil {
		return nil, err
	}
	spec, err = spec.withDefaults()
	if err != nil {
		return nil, err
	}
	base, _, ok := r.datasets.ResolveAs(ten, spec.DatasetRef)
	if !ok {
		return nil, fmt.Errorf("pipeline: no dataset %q resident for tenant %q", spec.DatasetRef, ten)
	}

	r.mu.Lock()
	if max := r.quotas(ten).MaxPipelines; max > 0 {
		if _, live := r.countsLocked(ten); live >= max {
			r.mu.Unlock()
			return nil, fmt.Errorf("pipeline: tenant %q at max_pipelines %d: %w", ten, max, tenant.ErrQuota)
		}
	}
	r.seq++
	rec := &Record{
		ID:     fmt.Sprintf("pl-%06d", r.seq),
		Tenant: ten,
		Spec:   spec,
		Status: serve.StatusQueued,
		Stages: []StageRecord{},
	}
	if err := r.persistLocked(rec); err != nil {
		r.seq--
		r.mu.Unlock()
		return nil, fmt.Errorf("pipeline: persisting run: %w", err)
	}
	r.recs[rec.ID] = rec
	r.order = append(r.order, rec.ID)
	r.mu.Unlock()

	if err := r.launch(rec, spec.Stages, newRunState(spec, base, nil)); err != nil {
		r.drop(rec)
		return nil, err
	}
	r.mu.Lock()
	out := rec.clone()
	r.mu.Unlock()
	return out, nil
}

// launch submits the run's (remaining) stages to the engine with hooks
// that mirror every stage result into the durable record.
func (r *Registry) launch(rec *Record, names []string, rs *runState) error {
	id := rec.ID
	_, err := r.engine.Submit(serve.JobSpec{
		Tenant: rec.Tenant,
		Name:   id,
		Stages: rs.stages(names),
		OnStage: func(res serve.StageResult) {
			r.onStage(id, res)
		},
		OnFinish: func(final serve.JobStatus) {
			r.onFinish(id, final)
		},
	})
	return err
}

// drop removes a run that failed to launch: the persisted record is
// rolled back so the rejection is traceless.
func (r *Registry) drop(rec *Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.recs, rec.ID)
	for i, id := range r.order {
		if id == rec.ID {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	if r.st != nil {
		_ = r.st.Delete(store.KindPipelines, rec.ID)
	}
}

// onStage appends one completed stage to the durable record. It runs on
// the engine worker between stage completion and the next stage's
// scheduling, so the store always holds every finished stage before its
// successor can run.
func (r *Registry) onStage(id string, res serve.StageResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.recs[id]
	if rec == nil {
		return
	}
	sr := StageRecord{
		Index:         len(rec.Stages),
		Stage:         res.Stage,
		Kind:          res.Kind,
		Status:        res.Status,
		ElapsedMillis: res.ElapsedMillis,
		Error:         res.Error,
	}
	if res.Detail != nil {
		sr.Detail = marshalDetail(res.Detail)
	}
	rec.Status = serve.StatusRunning
	rec.Stages = append(rec.Stages, sr)
	_ = r.persistLocked(rec)
}

// marshalDetail renders a stage's typed detail for the durable record.
// A detail that cannot marshal is recorded as an error object, never
// dropped: a silently missing detail would make the persisted record
// lie about what the stage produced.
func marshalDetail(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(map[string]string{"detail_error": err.Error()})
	}
	return b
}

// onFinish marks the run terminal, which frees its live-quota slot,
// and prunes the oldest finished records past the retention bound.
func (r *Registry) onFinish(id string, final serve.JobStatus) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.recs[id]
	if rec == nil {
		return
	}
	if final.Interrupted {
		// Engine shutdown between stages, not a run failure: leave the
		// record non-terminal (its completed stages are already durable)
		// so the next boot's AttachStore resumes it where it stopped.
		rec.Status = serve.StatusRunning
		_ = r.persistLocked(rec)
		return
	}
	rec.Status = final.Status
	rec.Error = final.Error
	rec.ElapsedMillis = final.ElapsedMillis
	_ = r.persistLocked(rec)
	r.pruneLocked()
}

// pruneLocked forgets the oldest finished records past
// maxFinishedRecords, in both memory and the store.
func (r *Registry) pruneLocked() {
	finished := 0
	for _, id := range r.order {
		if rec := r.recs[id]; rec != nil && terminal(rec.Status) {
			finished++
		}
	}
	for i := 0; finished > maxFinishedRecords && i < len(r.order); {
		rec := r.recs[r.order[i]]
		if rec == nil || !terminal(rec.Status) {
			i++
			continue
		}
		delete(r.recs, rec.ID)
		r.order = append(r.order[:i], r.order[i+1:]...)
		if r.st != nil {
			_ = r.st.Delete(store.KindPipelines, rec.ID)
		}
		finished--
	}
}

func terminal(s serve.Status) bool {
	return s == serve.StatusDone || s == serve.StatusFailed
}

// Get returns run id's record if tenant ten owns it — absent and
// foreign runs are indistinguishable.
func (r *Registry) Get(ten, id string) (*Record, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.recs[id]
	if rec == nil || rec.Tenant != ten {
		return nil, false
	}
	return rec.clone(), true
}

// List returns tenant ten's runs, newest first.
func (r *Registry) List(ten string) []*Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := []*Record{}
	for i := len(r.order) - 1; i >= 0; i-- {
		rec := r.recs[r.order[i]]
		if rec == nil || rec.Tenant != ten {
			continue
		}
		out = append(out, rec.clone())
	}
	return out
}

// CountsAs reports ten's total and live (non-terminal) run counts for
// the responsibility report.
func (r *Registry) CountsAs(ten string) (total, live int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.countsLocked(ten)
}

// countsLocked is CountsAs for callers holding r.mu; the MaxPipelines
// gate reads the same live count.
func (r *Registry) countsLocked(ten string) (total, live int) {
	for _, rec := range r.recs {
		if rec.Tenant == ten {
			total++
			if !terminal(rec.Status) {
				live++
			}
		}
	}
	return total, live
}

// AttachStore adopts st as the registry's durability port and restores
// every persisted run: finished records become queryable again, and
// interrupted runs are resumed at their last completed stage — the
// persisted stage results stand, the remaining stages are re-enqueued,
// and the in-memory artifacts are rebuilt by deterministic replay of
// the completed stages' compute. A corrupt record refuses the boot
// (fail loudly, not quietly degraded); a missing dataset fails only the
// runs that need it.
func (r *Registry) AttachStore(st store.Store) error {
	items, err := st.List(store.KindPipelines)
	if err != nil {
		return fmt.Errorf("pipeline: restoring runs: %w", err)
	}
	type resume struct {
		rec       *Record
		remaining []string
		rs        *runState
	}
	var resumes []resume

	r.mu.Lock()
	r.st = st
	for _, it := range items {
		var rec Record
		if err := json.Unmarshal(it.Payload, &rec); err != nil {
			r.mu.Unlock()
			return fmt.Errorf("pipeline: corrupt run record %q: %w", it.ID, err)
		}
		if rec.ID != it.ID {
			r.mu.Unlock()
			return fmt.Errorf("pipeline: run record %q names itself %q", it.ID, rec.ID)
		}
		cp := rec
		r.recs[rec.ID] = &cp
		r.order = append(r.order, rec.ID)
		if n, err := strconv.ParseUint(strings.TrimPrefix(rec.ID, "pl-"), 10, 64); err == nil && n > r.seq {
			r.seq = n
		}
	}
	// order restored by id — ids are monotone, so this is submission
	// order (List renders newest first from it).
	sort.Strings(r.order)
	for _, id := range r.order {
		rec := r.recs[id]
		if terminal(rec.Status) {
			continue
		}
		done := len(rec.Stages)
		names := rec.Spec.Stages
		if done >= len(names) {
			// Every stage finished but the terminal status didn't land
			// before the kill: finalize now.
			rec.Status = serve.StatusDone
			for _, s := range rec.Stages {
				if s.Status == serve.StatusFailed {
					rec.Status = serve.StatusFailed
					rec.Error = s.Error
				}
			}
			_ = r.persistLocked(rec)
			continue
		}
		if done > 0 && rec.Stages[done-1].Status == serve.StatusFailed {
			// The failing stage persisted before the finish marker could:
			// the run is over, record it so.
			rec.Status = serve.StatusFailed
			rec.Error = rec.Stages[done-1].Error
			_ = r.persistLocked(rec)
			continue
		}
		base, _, ok := r.datasets.ResolveAs(rec.Tenant, rec.Spec.DatasetRef)
		if !ok {
			rec.Status = serve.StatusFailed
			rec.Error = fmt.Sprintf("pipeline: dataset %q not resident after restart", rec.Spec.DatasetRef)
			_ = r.persistLocked(rec)
			continue
		}
		rec.Status = serve.StatusRunning
		rec.Resumed++
		_ = r.persistLocked(rec)
		resumes = append(resumes, resume{
			rec:       rec,
			remaining: names[done:],
			rs:        newRunState(rec.Spec, base, names[:done]),
		})
	}
	r.mu.Unlock()

	for _, rs := range resumes {
		if err := r.launch(rs.rec, rs.remaining, rs.rs); err != nil {
			r.mu.Lock()
			rs.rec.Status = serve.StatusFailed
			rs.rec.Error = fmt.Sprintf("pipeline: resume rejected: %v", err)
			_ = r.persistLocked(rs.rec)
			r.mu.Unlock()
		}
	}
	return nil
}
