package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/httpx"
	"github.com/responsible-data-science/rds/internal/policy"
	"github.com/responsible-data-science/rds/internal/synth"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// AuditRequestWire is the JSON body of POST /v1/audit. Exactly one data
// source must be set: DatasetRef (a resident dataset's content hash),
// CSV (inline), Path (server-local file), or Synthetic (generated demo
// data).
type AuditRequestWire struct {
	// Tenant is the submitting tenant's id. The X-RDS-Tenant header,
	// validated at the edge, takes precedence; both empty means the
	// default tenant (single-tenant clients keep working unchanged).
	Tenant string `json:"tenant,omitempty"`
	// Dataset names the data in reports (default "dataset", or the
	// registry name when auditing by DatasetRef).
	Dataset string `json:"dataset,omitempty"`
	// DatasetRef is the content hash of a dataset made resident via
	// POST /v1/datasets: the audit resolves the loaded frame from the
	// registry in O(1) instead of re-uploading and re-parsing, and the
	// ref doubles as the report-cache data hash (no re-hash).
	DatasetRef string `json:"dataset_ref,omitempty"`
	// CSV is an inline CSV document with a header row.
	CSV string `json:"csv,omitempty"`
	// Path is a server-local CSV file to audit.
	Path string `json:"path,omitempty"`
	// Synthetic generates a biased synthetic credit population.
	Synthetic *SyntheticSpec `json:"synthetic,omitempty"`

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
	// the model; it stays part of the report-cache key.
	Epochs int `json:"epochs,omitempty"`
	// Seed drives the pipeline's stochastic steps (default 1).
	Seed uint64 `json:"seed,omitempty"`

	// Policy holds the FACT thresholds to grade against. When omitted,
	// DefaultPolicy applies.
	Policy *policy.FACTPolicy `json:"policy,omitempty"`

	// Async makes POST return 202 with the job id immediately instead
	// of waiting for the report.
	Async bool `json:"async,omitempty"`
}

// SyntheticSpec requests generated demo data instead of an upload.
type SyntheticSpec struct {
	// N is the row count (default 5000).
	N int `json:"n,omitempty"`
	// Bias is the injected discrimination knob. A pointer so that an
	// explicit 0 (fair labels) is distinguishable from omitted
	// (default 1.0).
	Bias *float64 `json:"bias,omitempty"`
	// GroupBFraction is the protected-group share of the population
	// (default 0.35). Monitoring demos shift it to inject covariate
	// drift.
	GroupBFraction float64 `json:"group_b_fraction,omitempty"`
	// Seed drives generation (default 1).
	Seed uint64 `json:"seed,omitempty"`
}

// Credit materializes the spec via synth.Credit, applying the spec's
// defaulting (bias 1.0 when omitted). Shared by the audit and monitor
// ingest paths.
func (s *SyntheticSpec) Credit() (*frame.Frame, error) {
	bias := 1.0
	if s.Bias != nil {
		bias = *s.Bias
	}
	return synth.Credit(synth.CreditConfig{
		N:              s.N,
		Bias:           bias,
		GroupBFraction: s.GroupBFraction,
		Seed:           s.Seed,
	})
}

// DefaultPolicy is the FACT policy applied when a request omits one:
// the four-fifths rule, mandatory intervals with Holm correction,
// lineage, a model card, and a 0.75 surrogate-fidelity floor — the same
// defaults as cmd/rds-audit.
func DefaultPolicy() policy.FACTPolicy {
	return policy.FACTPolicy{
		MinDisparateImpact:   0.8,
		MaxEqOppDifference:   0.1,
		RequireIntervals:     true,
		Correction:           "holm",
		RequireLineage:       true,
		RequireModelCard:     true,
		MinSurrogateFidelity: 0.75,
	}
}

// Handler exposes an Engine over HTTP:
//
//	POST /v1/audit       run an audit (sync by default; "async": true for 202 + id)
//	GET  /v1/audit/{id}  job status / result (any of the caller's jobs, pipelines included)
//	GET  /healthz        liveness and pool state
//	GET  /metrics        throughput, cache hit rate, latency quantiles
//
// Mount serves these routes together with the other planes' (monitors,
// datasets, pipelines, tenants) behind one route table. Every
// response, success or error, is application/json.
type Handler struct {
	engine *Engine
	// AllowPaths permits requests that read server-local files via
	// "path". Leave false for network-facing deployments.
	AllowPaths bool
	// MonitorMetrics, when set, contributes the monitoring plane's
	// gauge snapshot to GET /metrics as the "monitor" field.
	MonitorMetrics func() any
	// Datasets, when set, lets audit requests resolve by
	// "dataset_ref"; its gauges are merged into GET /metrics as the
	// "datasets" field.
	Datasets *dataset.Registry
	// ChunkStates, when set, contributes the monitoring plane's
	// chunk-state cache gauges (incremental sliding-window re-audits)
	// to GET /metrics as the "chunk_states" field.
	ChunkStates *dataset.StateCache
}

// NewHandler wraps the engine in the HTTP API.
func NewHandler(e *Engine) *Handler { return &Handler{engine: e} }

// Mount returns the service's HTTP surface: the audit API's routes
// followed by each plane's (monitor, dataset, pipeline and tenantapi
// Handler.Routes), behind one httpx.Router. serve cannot import those
// planes (they build on Engine), so the caller hands their routes in.
func (h *Handler) Mount(planes ...[]httpx.Route) http.Handler {
	routes := []httpx.Route{
		{Method: http.MethodPost, Pattern: "/v1/audit", Handle: h.postAudit},
		{Method: http.MethodGet, Pattern: "/v1/audit/{id}", Handle: h.getAudit},
		{Method: http.MethodGet, Pattern: "/healthz", Handle: h.healthz},
		{Method: http.MethodGet, Pattern: "/metrics", Handle: h.metrics},
	}
	for _, p := range planes {
		routes = append(routes, p...)
	}
	return httpx.NewRouter(routes...)
}

func (h *Handler) postAudit(w http.ResponseWriter, r *http.Request, _ string) {
	r.Body = http.MaxBytesReader(w, r.Body, httpx.MaxBodyBytes)
	wire, err := decodeWire(r)
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, err)
		return
	}
	ten, err := tenant.Or(r.Context(), wire.Tenant)
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, err)
		return
	}
	req, err := h.buildRequest(ten, wire)
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, err)
		return
	}
	spec, err := h.engine.AuditJob(req)
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, err)
		return
	}
	id, err := h.engine.Submit(spec)
	if err != nil {
		WriteSubmitError(w, err)
		return
	}
	if wire.Async {
		js, _ := h.engine.Job(id)
		httpx.WriteJSON(w, http.StatusAccepted, js)
		return
	}
	js, err := h.engine.Wait(r.Context(), id)
	if err != nil {
		httpx.Error(w, http.StatusGatewayTimeout, fmt.Errorf("job %s still %s: %w", id, js.Status, err))
		return
	}
	if js.Status == StatusFailed {
		httpx.WriteJSON(w, http.StatusUnprocessableEntity, js)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, js)
}

func (h *Handler) getAudit(w http.ResponseWriter, r *http.Request, id string) {
	ten, err := tenant.Or(r.Context(), r.URL.Query().Get("tenant"))
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, err)
		return
	}
	js, ok := h.engine.Job(id)
	if !ok || js.Tenant != ten {
		// A job owned by another tenant is indistinguishable from an
		// absent one: 404, not 403, so ids can't be probed across
		// tenants.
		httpx.Error(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	httpx.WriteJSON(w, http.StatusOK, js)
}

// WriteSubmitError answers a rejected Submit on every plane that
// submits jobs: 429 when only the caller's tenant is over budget
// (ErrTenantBusy, tenant.ErrQuota), 503 when the service is saturated
// or closing (ErrBusy, ErrClosed), and 400 for anything else. A
// rejection that suggests a backoff also gets a Retry-After header
// (see RetryAfter).
func WriteSubmitError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrTenantBusy), errors.Is(err, tenant.ErrQuota):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrBusy), errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	}
	if secs, ok := RetryAfter(err); ok {
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	httpx.Error(w, status, err)
}

// healthz reports pool liveness. queue_capacity reads the engine's
// construction-time snapshot (Engine.QueueCapacity), never the Config
// copy, so the gauge can't drift from the enforced bound.
func (h *Handler) healthz(w http.ResponseWriter, _ *http.Request, _ string) {
	httpx.WriteJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"workers":        h.engine.Config().Workers,
		"queue_depth":    h.engine.QueueDepth(),
		"queue_capacity": h.engine.QueueCapacity(),
	})
}

// metrics renders the engine snapshot, with the monitoring plane's
// gauges merged in under "monitor", the dataset registry's under
// "datasets", and the chunk-state cache's under "chunk_states" when
// those planes are mounted. The engine's field names
// stay at the top level so existing scrapers keep working; see README
// "Metrics reference" for the stable field list.
func (h *Handler) metrics(w http.ResponseWriter, _ *http.Request, _ string) {
	snap := h.engine.MetricsSnapshot()
	if h.MonitorMetrics == nil && h.Datasets == nil && h.ChunkStates == nil {
		httpx.WriteJSON(w, http.StatusOK, snap)
		return
	}
	merged := struct {
		Snapshot
		Monitor     any `json:"monitor,omitempty"`
		Datasets    any `json:"datasets,omitempty"`
		ChunkStates any `json:"chunk_states,omitempty"`
	}{Snapshot: snap}
	if h.MonitorMetrics != nil {
		merged.Monitor = h.MonitorMetrics()
	}
	if h.Datasets != nil {
		merged.Datasets = h.Datasets.Metrics()
	}
	if h.ChunkStates != nil {
		merged.ChunkStates = h.ChunkStates.Metrics()
	}
	httpx.WriteJSON(w, http.StatusOK, merged)
}

// decodeWire parses the request body: JSON requests as-is, raw CSV
// bodies (text/csv or multipart file field "data") into the CSV field
// with the spec read from query parameters.
func decodeWire(r *http.Request) (*AuditRequestWire, error) {
	ct := r.Header.Get("Content-Type")
	switch {
	// x-www-form-urlencoded is what bare `curl -d '{...}'` sends; treat
	// it as JSON so the quickstart works without a header flag.
	case strings.HasPrefix(ct, "application/json"), ct == "",
		strings.HasPrefix(ct, "application/x-www-form-urlencoded"):
		var wire AuditRequestWire
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&wire); err != nil {
			return nil, fmt.Errorf("decoding JSON body: %w", err)
		}
		return &wire, nil
	case strings.HasPrefix(ct, "text/csv"):
		var b strings.Builder
		if _, err := io.Copy(&b, r.Body); err != nil {
			return nil, fmt.Errorf("reading CSV body: %w", err)
		}
		return wireFromQuery(r, b.String())
	case strings.HasPrefix(ct, "multipart/form-data"):
		if err := r.ParseMultipartForm(httpx.MaxBodyBytes); err != nil {
			return nil, fmt.Errorf("parsing multipart form: %w", err)
		}
		f, _, err := r.FormFile("data")
		if err != nil {
			return nil, fmt.Errorf("multipart upload needs a \"data\" file field: %w", err)
		}
		defer f.Close()
		var b strings.Builder
		if _, err := io.Copy(&b, f); err != nil {
			return nil, fmt.Errorf("reading multipart upload: %w", err)
		}
		return wireFromQuery(r, b.String())
	}
	return nil, fmt.Errorf("unsupported Content-Type %q (want application/json, text/csv, or multipart/form-data)", ct)
}

// wireFromQuery builds a wire request for a raw CSV body, reading the
// training spec from query parameters (?target=...&sensitive=...).
func wireFromQuery(r *http.Request, csv string) (*AuditRequestWire, error) {
	q := r.URL.Query()
	wire := &AuditRequestWire{
		CSV:        csv,
		Tenant:     q.Get("tenant"),
		Dataset:    q.Get("dataset"),
		Target:     q.Get("target"),
		Sensitive:  q.Get("sensitive"),
		Protected:  q.Get("protected"),
		Reference:  q.Get("reference"),
		Mitigation: q.Get("mitigation"),
		Async:      q.Get("async") == "1" || q.Get("async") == "true",
	}
	if s := q.Get("seed"); s != "" {
		seed, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", s, err)
		}
		wire.Seed = seed
	}
	return wire, nil
}

// buildRequest materializes the dataset and assembles the engine
// request for the given (already-normalized) tenant. dataset_ref
// resolution is tenant-scoped: another tenant's ref is an unknown ref.
func (h *Handler) buildRequest(ten string, wire *AuditRequestWire) (*Request, error) {
	sources := 0
	for _, set := range []bool{wire.DatasetRef != "", wire.CSV != "", wire.Path != "", wire.Synthetic != nil} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, errors.New("exactly one of dataset_ref, csv, path, or synthetic must be set")
	}

	var (
		data     *frame.Frame
		dataHash string
		err      error
		name     = wire.Dataset
	)
	switch {
	case wire.DatasetRef != "":
		if h.Datasets == nil {
			return nil, errors.New("dataset_ref audits are disabled on this server (no dataset registry)")
		}
		f, meta, ok := h.Datasets.ResolveAs(ten, wire.DatasetRef)
		if !ok {
			return nil, fmt.Errorf("unknown dataset_ref %q (load it first via POST /v1/datasets)", wire.DatasetRef)
		}
		data, dataHash = f, meta.Ref
		if name == "" {
			name = meta.Name
		}
	case wire.CSV != "":
		data, err = frame.ReadCSVString(wire.CSV)
	case wire.Path != "":
		if !h.AllowPaths {
			return nil, errors.New("path-based audits are disabled on this server")
		}
		var f *os.File
		if f, err = os.Open(wire.Path); err == nil {
			data, err = frame.ReadCSV(f)
			f.Close()
		}
		if name == "" {
			name = wire.Path
		}
	case wire.Synthetic != nil:
		data, err = wire.Synthetic.Credit()
		if name == "" {
			name = "synthetic-credit"
		}
	}
	if err != nil {
		return nil, fmt.Errorf("loading dataset: %w", err)
	}

	mitigation, err := core.ParseMitigation(wire.Mitigation)
	if err != nil {
		return nil, err
	}
	pol := DefaultPolicy()
	if wire.Policy != nil {
		pol = *wire.Policy
	}
	spec := core.TrainSpec{
		Target:       wire.Target,
		Sensitive:    wire.Sensitive,
		Protected:    wire.Protected,
		Reference:    wire.Reference,
		TestFraction: wire.TestFraction,
		Mitigation:   mitigation,
		Epochs:       wire.Epochs,
	}.WithDefaultColumns()
	return &Request{
		Tenant:   ten,
		Dataset:  httpx.StringOr(name, "dataset"),
		Data:     data,
		DataHash: dataHash,
		// A dataset ref is the frame's hash: the pipeline need not
		// hash the frame again.
		frameHash: dataHash,
		Policy:    pol,
		Spec:      spec,
		Seed:      wire.Seed,
	}, nil
}
