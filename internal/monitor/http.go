package monitor

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/httpx"
	"github.com/responsible-data-science/rds/internal/policy"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/stream"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// SpecWire is the JSON body of POST /v1/monitors.
type SpecWire struct {
	// Name labels the monitored dataset. Required; unique within the
	// owning tenant.
	Name string `json:"name"`
	// Tenant is the owning tenant's id; the X-RDS-Tenant header takes
	// precedence, both empty means the default tenant.
	Tenant string `json:"tenant,omitempty"`
	// Policy holds the FACT thresholds; serve.DefaultPolicy when
	// omitted.
	Policy *policy.FACTPolicy `json:"policy,omitempty"`

	// Target is the binary label column (default "approved").
	Target string `json:"target,omitempty"`
	// Sensitive is the sensitive-attribute column (default "group").
	Sensitive string `json:"sensitive,omitempty"`
	// Protected is the protected group value (default "B").
	Protected string `json:"protected,omitempty"`
	// Reference is the reference group value (default "A").
	Reference string `json:"reference,omitempty"`
	// Mitigation is "none", "reweigh", or "threshold".
	Mitigation string `json:"mitigation,omitempty"`
	// TestFraction is the held-out fraction (default 0.3).
	TestFraction float64 `json:"test_fraction,omitempty"`
	// Epochs caps the logistic fit's Newton iterations (default 40).
	// The fit converges in a handful, so only a cap below that changes
	// the model.
	Epochs int `json:"epochs,omitempty"`
	// Seed drives each window audit's stochastic steps (default 1).
	Seed uint64 `json:"seed,omitempty"`

	// BaselineRef pins a registry-resident dataset (its content hash
	// from POST /v1/datasets) as the drift baseline at registration
	// time, instead of baselining the first stream window. The dataset
	// stays pinned — unevictable — until the monitor is deleted.
	BaselineRef string `json:"baseline_ref,omitempty"`

	// WindowMS is the window width in stream milliseconds
	// (default 60000).
	WindowMS int64 `json:"window_ms,omitempty"`
	// SlideMS is the hop between window starts; omitted means tumbling.
	SlideMS int64 `json:"slide_ms,omitempty"`
	// MinRows is the minimum auditable window size (default 1).
	MinRows int `json:"min_rows,omitempty"`
	// AuditEvery audits every Nth window (default 1; drift breaches
	// always force an audit).
	AuditEvery int `json:"audit_every,omitempty"`

	// Drift overrides the PSI/KS thresholds and binning.
	Drift *DriftConfig `json:"drift,omitempty"`

	// ReauditEveryMS schedules wall-clock re-audits of the latest
	// window (0 disables).
	ReauditEveryMS int64 `json:"reaudit_every_ms,omitempty"`
	// History bounds the window-history ring (default 64).
	History int `json:"history,omitempty"`
	// Webhook, when set, attaches a WebhookSink delivering this
	// monitor's alerts to the URL.
	Webhook string `json:"webhook,omitempty"`
}

// IngestWire is the JSON body of POST /v1/monitors/{id}/ingest: one
// batch of rows (inline CSV or synthetic demo data) stamped onto the
// monitor's stream clock as one arrival.
type IngestWire struct {
	// TimeMS is the batch's arrival time on the stream clock (>= 0).
	TimeMS int64 `json:"time_ms"`
	// CSV is an inline CSV document with a header row. A header-only
	// document is a heartbeat: it advances the stream clock, closing
	// every window that ends by TimeMS, without adding rows.
	CSV string `json:"csv,omitempty"`
	// Synthetic generates a synthetic credit batch instead of CSV.
	Synthetic *serve.SyntheticSpec `json:"synthetic,omitempty"`
	// Flush force-closes all open windows after ingesting (end of a
	// finite stream).
	Flush bool `json:"flush,omitempty"`
}

// Handler exposes a Registry over HTTP:
//
//	POST   /v1/monitors               register a monitor
//	GET    /v1/monitors               list monitors
//	GET    /v1/monitors/{id}          monitor status
//	DELETE /v1/monitors/{id}          stop and remove a monitor
//	GET    /v1/monitors/{id}/history  per-window reports and drift
//	POST   /v1/monitors/{id}/ingest   feed rows onto the stream clock
//
// cmd/rds-serve mounts its Routes beside the audit API's; all responses
// are application/json.
type Handler struct {
	reg *Registry
}

// NewHandler wraps the registry in the HTTP API.
func NewHandler(reg *Registry) *Handler { return &Handler{reg: reg} }

// Routes returns the monitor API's route table entries. Every
// operation is tenant-scoped: the tenant comes from the X-RDS-Tenant
// header, the "tenant" wire/query field, or defaults; another tenant's
// monitor ids read as 404.
func (h *Handler) Routes() []httpx.Route {
	return []httpx.Route{
		{Method: http.MethodPost, Pattern: "/v1/monitors", Handle: h.register},
		{Method: http.MethodGet, Pattern: "/v1/monitors", Handle: h.list},
		{Method: http.MethodGet, Pattern: "/v1/monitors/{id}", Handle: h.status},
		{Method: http.MethodDelete, Pattern: "/v1/monitors/{id}", Handle: h.remove},
		{Method: http.MethodGet, Pattern: "/v1/monitors/{id}/history", Handle: h.history},
		{Method: http.MethodPost, Pattern: "/v1/monitors/{id}/ingest", Handle: h.ingest},
	}
}

func (h *Handler) list(w http.ResponseWriter, r *http.Request, _ string) {
	ten, err := tenant.Or(r.Context(), r.URL.Query().Get("tenant"))
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, h.reg.ListAs(ten))
}

func (h *Handler) register(w http.ResponseWriter, r *http.Request, _ string) {
	var wire SpecWire
	if err := httpx.DecodeJSON(w, r, &wire); err != nil {
		httpx.Error(w, http.StatusBadRequest, err)
		return
	}
	spec, err := wire.spec()
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, err)
		return
	}
	ten, err := tenant.Or(r.Context(), wire.Tenant)
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, err)
		return
	}
	spec.Tenant = ten
	m, err := h.reg.Register(spec)
	if errors.Is(err, tenant.ErrQuota) {
		httpx.Error(w, http.StatusTooManyRequests, err)
		return
	}
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, err)
		return
	}
	httpx.WriteJSON(w, http.StatusCreated, m.Status())
}

// getOwned resolves id to a monitor the request's tenant owns, writing
// the error response itself on failure. A monitor owned by another
// tenant is indistinguishable from an absent one (404) — no
// cross-tenant probing.
func (h *Handler) getOwned(w http.ResponseWriter, r *http.Request, id string) (*Monitor, bool) {
	ten, err := tenant.Or(r.Context(), r.URL.Query().Get("tenant"))
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, err)
		return nil, false
	}
	m, ok := h.reg.Get(id)
	if !ok || m.spec.Tenant != ten {
		httpx.Error(w, http.StatusNotFound, fmt.Errorf("no monitor %q", id))
		return nil, false
	}
	return m, true
}

func (h *Handler) status(w http.ResponseWriter, r *http.Request, id string) {
	if m, ok := h.getOwned(w, r, id); ok {
		httpx.WriteJSON(w, http.StatusOK, m.Status())
	}
}

func (h *Handler) remove(w http.ResponseWriter, r *http.Request, id string) {
	if _, ok := h.getOwned(w, r, id); ok {
		h.reg.Delete(id)
		httpx.WriteJSON(w, http.StatusOK, map[string]string{"deleted": id})
	}
}

func (h *Handler) history(w http.ResponseWriter, r *http.Request, id string) {
	m, ok := h.getOwned(w, r, id)
	if !ok {
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]any{
		"monitor":          id,
		"history":          m.History(),
		"baseline_profile": m.BaselineProfileInfo(),
	})
}

func (h *Handler) ingest(w http.ResponseWriter, r *http.Request, id string) {
	m, ok := h.getOwned(w, r, id)
	if !ok {
		return
	}
	var wire IngestWire
	if err := httpx.DecodeJSON(w, r, &wire); err != nil {
		httpx.Error(w, http.StatusBadRequest, err)
		return
	}
	rows, err := wire.rows()
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, err)
		return
	}
	// Ingest rejects a negative time_ms before any window state changes
	// (the stream clock starts at zero), so adversarial timestamps
	// answer 400 instead of reaching window-index arithmetic.
	if err := m.Ingest(stream.Arrival{TimeMS: wire.TimeMS, Rows: rows}); err != nil {
		httpx.Error(w, http.StatusBadRequest, err)
		return
	}
	if wire.Flush {
		m.Flush()
	}
	httpx.WriteJSON(w, http.StatusOK, m.Status())
}

// spec materializes the wire registration into a monitor Spec.
func (wire *SpecWire) spec() (Spec, error) {
	mitigation, err := core.ParseMitigation(wire.Mitigation)
	if err != nil {
		return Spec{}, err
	}
	pol := serve.DefaultPolicy()
	if wire.Policy != nil {
		pol = *wire.Policy
	}
	drift := DriftConfig{}
	if wire.Drift != nil {
		drift = *wire.Drift
	}
	var sinks []Sink
	if wire.Webhook != "" {
		sinks = append(sinks, &WebhookSink{URL: wire.Webhook})
	}
	return Spec{
		Name:        wire.Name,
		BaselineRef: wire.BaselineRef,
		Policy:      pol,
		Train: core.TrainSpec{
			Target:       wire.Target,
			Sensitive:    wire.Sensitive,
			Protected:    wire.Protected,
			Reference:    wire.Reference,
			TestFraction: wire.TestFraction,
			Mitigation:   mitigation,
			Epochs:       wire.Epochs,
		}.WithDefaultColumns(),
		Seed: wire.Seed,
		Window: WindowConfig{
			WidthMS: wire.WindowMS,
			SlideMS: wire.SlideMS,
			MinRows: wire.MinRows,
		},
		Drift:        drift,
		AuditEvery:   wire.AuditEvery,
		ReauditEvery: time.Duration(wire.ReauditEveryMS) * time.Millisecond,
		History:      wire.History,
		Sinks:        sinks,
	}, nil
}

// rows materializes the ingest payload into a frame.
func (wire *IngestWire) rows() (*frame.Frame, error) {
	switch {
	case wire.CSV != "" && wire.Synthetic == nil:
		return frame.ReadCSVString(wire.CSV)
	case wire.CSV == "" && wire.Synthetic != nil:
		return wire.Synthetic.Credit()
	}
	return nil, errors.New("exactly one of csv or synthetic must be set")
}
