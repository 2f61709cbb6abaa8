package pipeline

import (
	"fmt"
	"net/http"

	"github.com/responsible-data-science/rds/internal/httpx"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// Handler exposes the pipeline plane over HTTP:
//
//	POST /v1/pipelines       submit a staged run (202 + initial record)
//	GET  /v1/pipelines       list visible runs, newest first
//	GET  /v1/pipelines/{id}  one run's record (spec + per-stage results)
//
// Submission is always async — pipelines are minutes of work, not a
// request-response exchange; poll the record (or the per-stage history)
// for progress. A request sees only the runs of the tenant its
// X-RDS-Tenant header names (the default tenant without one); a foreign
// id answers 404, indistinguishable from an absent one.
type Handler struct {
	// Runs is the pipeline registry. Required.
	Runs *Registry
}

// NewHandler wraps the registry in the HTTP API.
func NewHandler(runs *Registry) *Handler { return &Handler{Runs: runs} }

// Routes returns the pipelines API's route table entries.
func (h *Handler) Routes() []httpx.Route {
	return []httpx.Route{
		{Method: http.MethodPost, Pattern: "/v1/pipelines", Handle: h.post},
		{Method: http.MethodGet, Pattern: "/v1/pipelines", Handle: h.list},
		{Method: http.MethodGet, Pattern: "/v1/pipelines/{id}", Handle: h.get},
	}
}

func (h *Handler) list(w http.ResponseWriter, r *http.Request, _ string) {
	httpx.WriteJSON(w, http.StatusOK, map[string]any{"pipelines": h.Runs.List(tenant.Of(r.Context()))})
}

func (h *Handler) get(w http.ResponseWriter, r *http.Request, id string) {
	rec, ok := h.Runs.Get(tenant.Of(r.Context()), id)
	if !ok {
		httpx.Error(w, http.StatusNotFound, fmt.Errorf("no pipeline %q", id))
		return
	}
	httpx.WriteJSON(w, http.StatusOK, rec)
}

func (h *Handler) post(w http.ResponseWriter, r *http.Request, _ string) {
	var spec Spec
	if err := httpx.DecodeJSON(w, r, &spec); err != nil {
		httpx.Error(w, http.StatusBadRequest, err)
		return
	}
	rec, err := h.Runs.Submit(tenant.Of(r.Context()), spec)
	if err != nil {
		serve.WriteSubmitError(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusAccepted, rec)
}
