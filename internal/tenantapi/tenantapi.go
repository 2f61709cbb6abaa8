// Package tenantapi exposes the multi-tenant control surface over
// HTTP: quota configuration (backed by tenant.Registry) and the
// per-tenant TAPS-style responsibility report that rolls a tenant's
// audit grades, drift posture, and provenance cards into one document.
//
//	GET    /v1/tenants              service defaults + every quota override
//	GET    /v1/tenants/{id}         one tenant's effective quotas
//	PUT    /v1/tenants/{id}         install a quota override
//	DELETE /v1/tenants/{id}         remove an override (defaults apply again)
//	GET    /v1/tenants/{id}/report  responsibility report
//
// Requests carrying an X-RDS-Tenant header are scoped to that tenant:
// asking about any other tenant answers 404, indistinguishable from an
// absent one. Header-less (operator) requests see every tenant.
package tenantapi

import (
	"errors"
	"fmt"
	"net/http"

	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/httpx"
	"github.com/responsible-data-science/rds/internal/monitor"
	"github.com/responsible-data-science/rds/internal/policy"
	"github.com/responsible-data-science/rds/internal/provenance"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// Handler wires the quota registry and the data/monitoring planes into
// the /v1/tenants API. Datasets and Monitors may be nil (reports then
// render empty sections).
type Handler struct {
	// Tenants is the quota source of truth. Required.
	Tenants *tenant.Registry
	// Datasets supplies the report's dataset inventory and datasheets.
	Datasets *dataset.Registry
	// Monitors supplies the report's audit grades and drift posture.
	Monitors *monitor.Registry
	// Pipelines supplies the report's remediation-run counters
	// (internal/pipeline.Registry).
	Pipelines PipelineCounter
}

// PipelineCounter is the slice of the pipeline registry the report
// needs: per-tenant run counts. Declared here so tenantapi does not
// depend on the pipeline plane's full surface.
type PipelineCounter interface {
	// CountsAs reports ten's total retained and live (unfinished) runs.
	CountsAs(ten string) (total, live int)
}

// NewHandler builds the tenants API around the given quota registry.
func NewHandler(tenants *tenant.Registry) *Handler {
	return &Handler{Tenants: tenants}
}

// ListResponse is the JSON body of GET /v1/tenants.
type ListResponse struct {
	// Defaults are the service-wide quotas tenants without an override
	// run under.
	Defaults tenant.Quotas `json:"defaults"`
	// Tenants lists every explicit quota override, ordered by id.
	Tenants []tenant.Info `json:"tenants"`
}

// Routes returns the tenants API's route table entries.
func (h *Handler) Routes() []httpx.Route {
	return []httpx.Route{
		{Method: http.MethodGet, Pattern: "/v1/tenants", Handle: h.list},
		{Method: http.MethodGet, Pattern: "/v1/tenants/{id}", Handle: h.get},
		{Method: http.MethodPut, Pattern: "/v1/tenants/{id}", Handle: h.put},
		{Method: http.MethodDelete, Pattern: "/v1/tenants/{id}", Handle: h.remove},
		{Method: http.MethodGet, Pattern: "/v1/tenants/{id}/report", Handle: h.report},
	}
}

func (h *Handler) list(w http.ResponseWriter, _ *http.Request, _ string) {
	httpx.WriteJSON(w, http.StatusOK, ListResponse{
		Defaults: h.Tenants.Defaults(),
		Tenants:  h.Tenants.List(),
	})
}

// addressable normalizes the tenant id a request names and checks the
// request may address it, answering 400 (invalid id) or 404 itself
// otherwise. Operator requests (no tenant context) may address every
// tenant; tenant-scoped requests only their own id. The failure is a
// 404, not a 403 — other tenants read as absent.
func addressable(w http.ResponseWriter, r *http.Request, raw string) (string, bool) {
	id, err := tenant.Normalize(raw)
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, err)
		return "", false
	}
	if ten, ok := tenant.FromContext(r.Context()); ok && ten != id {
		httpx.Error(w, http.StatusNotFound, fmt.Errorf("no tenant %q", id))
		return "", false
	}
	return id, true
}

func (h *Handler) get(w http.ResponseWriter, r *http.Request, raw string) {
	id, ok := addressable(w, r, raw)
	if !ok {
		return
	}
	info := tenant.Info{ID: id, Quotas: h.Tenants.Quotas(id)}
	for _, o := range h.Tenants.List() {
		if o.ID == id {
			info.Override = true
		}
	}
	httpx.WriteJSON(w, http.StatusOK, info)
}

func (h *Handler) put(w http.ResponseWriter, r *http.Request, raw string) {
	id, ok := addressable(w, r, raw)
	if !ok {
		return
	}
	var q tenant.Quotas
	if err := httpx.DecodeJSON(w, r, &q); err != nil {
		httpx.Error(w, http.StatusBadRequest, err)
		return
	}
	if err := h.Tenants.Set(id, q); err != nil {
		status := http.StatusBadRequest
		if !errors.Is(err, tenant.ErrInvalidID) && !errors.Is(err, tenant.ErrInvalidQuota) {
			status = http.StatusInternalServerError
		}
		httpx.Error(w, status, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, tenant.Info{ID: id, Quotas: h.Tenants.Quotas(id), Override: true})
}

func (h *Handler) remove(w http.ResponseWriter, r *http.Request, raw string) {
	id, ok := addressable(w, r, raw)
	if !ok {
		return
	}
	if err := h.Tenants.Remove(id); err != nil {
		httpx.Error(w, http.StatusInternalServerError, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]string{"removed": id})
}

// Report is the TAPS-style (transparency, accountability, provenance)
// responsibility roll-up for one tenant: the audit grades and drift
// posture of its monitors plus provenance cards for its resident
// datasets. Every field is a pure function of the tenant's data and
// audit results — nothing here depends on scheduling order, queue
// state, or wall-clock timing, so the same workload renders the same
// bytes regardless of how the engine interleaved it (property-tested).
type Report struct {
	Tenant string        `json:"tenant"`
	Quotas tenant.Quotas `json:"quotas"`
	// Posture is the one-line roll-up: "ok", "drifting" (any monitor
	// with drift breaches), or "degraded" (any degraded monitor;
	// dominates drifting).
	Posture  string          `json:"posture"`
	Datasets []DatasetReport `json:"datasets"`
	Monitors []MonitorReport `json:"monitors"`
	// Pipelines counts the tenant's remediation runs. Unlike the other
	// sections it is a point-in-time gauge — a live run finishes on the
	// engine's schedule — so it is excluded from the byte-identity
	// guarantee while runs are in flight; with every run terminal it is
	// deterministic in the submitted work like everything else.
	Pipelines *PipelineSection `json:"pipelines,omitempty"`
}

// PipelineSection is the responsibility report's remediation-plane
// slice: how many staged runs the tenant has retained and how many are
// still executing.
type PipelineSection struct {
	Total int `json:"total"`
	Live  int `json:"live"`
}

// DatasetReport is one resident dataset's slice of the report,
// including its rendered datasheet (Gebru et al.) provenance card.
type DatasetReport struct {
	Ref       string `json:"ref"`
	Name      string `json:"name"`
	Rows      int    `json:"rows"`
	Cols      int    `json:"cols"`
	Bytes     int64  `json:"bytes"`
	Pinned    bool   `json:"pinned"`
	Datasheet string `json:"datasheet"`
}

// MonitorReport is one monitor's slice of the report: its audit grades
// and drift counters (all deterministic in the ingested stream) plus a
// rendered model card. Timing fields (profile build cost, latencies)
// and the registry-assigned monitor id are deliberately absent — both
// vary with run-to-run scheduling and registration order and would
// break the report's byte-identity guarantee; Name is unique within
// the tenant and identifies the monitor stably.
type MonitorReport struct {
	Name          string        `json:"name"`
	BaselineGrade *policy.Grade `json:"baseline_grade,omitempty"`
	LastGrade     *policy.Grade `json:"last_grade,omitempty"`
	Degraded      bool          `json:"degraded"`
	RowsIngested  uint64        `json:"rows_ingested"`
	Windows       uint64        `json:"windows"`
	Audits        uint64        `json:"audits"`
	DriftBreaches uint64        `json:"drift_breaches"`
	Regressions   uint64        `json:"grade_regressions"`
	ModelCard     string        `json:"model_card"`
}

func (h *Handler) report(w http.ResponseWriter, r *http.Request, raw string) {
	if id, ok := addressable(w, r, raw); ok {
		httpx.WriteJSON(w, http.StatusOK, h.BuildReport(id))
	}
}

// BuildReport assembles the responsibility report for ten. Exported so
// tests can assert byte-identity without going through HTTP.
func (h *Handler) BuildReport(ten string) Report {
	rep := Report{
		Tenant:   ten,
		Quotas:   h.Tenants.Quotas(ten),
		Posture:  "ok",
		Datasets: []DatasetReport{},
		Monitors: []MonitorReport{},
	}
	if h.Datasets != nil {
		for _, m := range h.Datasets.ListAs(ten) {
			sheet := provenance.Datasheet{
				Name: m.Name,
				Hash: m.Ref,
				Rows: m.Rows,
				Cols: m.Cols,
			}
			rep.Datasets = append(rep.Datasets, DatasetReport{
				Ref:       m.Ref,
				Name:      m.Name,
				Rows:      m.Rows,
				Cols:      m.Cols,
				Bytes:     m.Bytes,
				Pinned:    m.Pins > 0,
				Datasheet: sheet.Render(),
			})
		}
	}
	if h.Monitors != nil {
		for _, s := range h.Monitors.ListAs(ten) {
			rep.Monitors = append(rep.Monitors, MonitorReport{
				Name:          s.Name,
				BaselineGrade: s.BaselineGrade,
				LastGrade:     s.LastGrade,
				Degraded:      s.Degraded,
				RowsIngested:  s.RowsIngested,
				Windows:       s.Windows,
				Audits:        s.Audits,
				DriftBreaches: s.DriftBreaches,
				Regressions:   s.Regressions,
				ModelCard:     h.modelCard(s),
			})
			if s.DriftBreaches > 0 && rep.Posture == "ok" {
				rep.Posture = "drifting"
			}
			if s.Degraded {
				rep.Posture = "degraded"
			}
		}
	}
	if h.Pipelines != nil {
		total, live := h.Pipelines.CountsAs(ten)
		rep.Pipelines = &PipelineSection{Total: total, Live: live}
	}
	return rep
}

// modelCard renders the model card (Mitchell et al.) for one monitor's
// per-window audit model.
func (h *Handler) modelCard(s monitor.Summary) string {
	var spec monitor.Spec
	if m, ok := h.Monitors.Get(s.ID); ok {
		spec = m.Spec()
	}
	card := provenance.ModelCard{
		Name:           s.Name,
		ModelType:      "logistic regression (FACT audit)",
		IntendedUse:    "per-window fairness/accuracy auditing of the monitored stream",
		TrainingData:   "each closed stream window, audited independently",
		FairnessNotes:  fmt.Sprintf("sensitive attribute %q excluded from features; protected %q vs reference %q", spec.Train.Sensitive, spec.Train.Protected, spec.Train.Reference),
		ExcludedFields: []string{spec.Train.Sensitive},
	}
	if spec.BaselineRef != "" {
		card.TrainingData = fmt.Sprintf("baseline dataset %s, then each closed stream window", spec.BaselineRef)
	}
	return card.Render()
}
