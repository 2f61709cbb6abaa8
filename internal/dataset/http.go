package dataset

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/httpx"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// UploadWire is the JSON body of POST /v1/datasets. Exactly one of CSV
// or NDJSON must be set; raw text/csv and application/x-ndjson bodies
// (with ?name=) are also accepted.
type UploadWire struct {
	// Name labels the dataset in listings (default "dataset").
	Name string `json:"name,omitempty"`
	// CSV is an inline CSV document with a header row.
	CSV string `json:"csv,omitempty"`
	// NDJSON is newline-delimited JSON, one flat object per row.
	NDJSON string `json:"ndjson,omitempty"`
}

// Handler exposes a Registry over HTTP:
//
//	POST   /v1/datasets        load a dataset once -> 201 with its content-hash ref
//	GET    /v1/datasets        list resident datasets (most recently used first)
//	GET    /v1/datasets/{ref}  one dataset's metadata
//	DELETE /v1/datasets/{ref}  evict (409 while pinned by a monitor)
//
// The returned "ref" is the dataset_ref audit requests and monitor
// registrations resolve by. cmd/rds-serve mounts its Routes beside the
// audit API's; all responses are application/json.
type Handler struct {
	reg *Registry
}

// NewHandler wraps the registry in the HTTP API.
func NewHandler(reg *Registry) *Handler { return &Handler{reg: reg} }

// Routes returns the dataset API's route table entries. Every
// operation is scoped to the tenant the X-RDS-Tenant header names (the
// default tenant without one); another tenant's ref reads as 404, so
// refs cannot be probed across tenants.
func (h *Handler) Routes() []httpx.Route {
	return []httpx.Route{
		{Method: http.MethodPost, Pattern: "/v1/datasets", Query: []string{"name"}, Handle: h.upload},
		{Method: http.MethodGet, Pattern: "/v1/datasets", Handle: h.list},
		{Method: http.MethodGet, Pattern: "/v1/datasets/{ref}", Handle: h.get},
		{Method: http.MethodDelete, Pattern: "/v1/datasets/{ref}", Handle: h.remove},
	}
}

func (h *Handler) list(w http.ResponseWriter, r *http.Request, _ string) {
	httpx.WriteJSON(w, http.StatusOK, h.reg.ListAs(tenant.Of(r.Context())))
}

func (h *Handler) upload(w http.ResponseWriter, r *http.Request, _ string) {
	name, f, err := h.decodeUpload(w, r)
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, err)
		return
	}
	meta, err := h.reg.PutAs(tenant.Of(r.Context()), httpx.StringOr(name, "dataset"), f)
	switch {
	case errors.Is(err, tenant.ErrQuota):
		// The tenant's own budget, not the service's: 429.
		httpx.Error(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrOverBudget):
		httpx.Error(w, http.StatusInsufficientStorage, err)
		return
	case err != nil:
		httpx.Error(w, http.StatusBadRequest, err)
		return
	}
	httpx.WriteJSON(w, http.StatusCreated, meta)
}

// decodeUpload parses the upload body into a frame and its name: JSON
// envelopes as-is (the name in the body, no query), a raw text/csv
// body read once into a string sized from its Content-Length and
// parsed in place, and application/x-ndjson streamed directly off the
// (size-capped) body (both with ?name= from the query).
func (h *Handler) decodeUpload(w http.ResponseWriter, r *http.Request) (name string, f *frame.Frame, err error) {
	ct := r.Header.Get("Content-Type")
	switch {
	case strings.HasPrefix(ct, "text/csv"):
		r.Body = http.MaxBytesReader(w, r.Body, httpx.MaxBodyBytes)
		body, err := httpx.ReadString(r.Body, r.ContentLength)
		if err != nil {
			return "", nil, fmt.Errorf("reading CSV body: %w", err)
		}
		f, err := frame.ReadCSVString(body)
		return r.URL.Query().Get("name"), f, err
	case strings.HasPrefix(ct, "application/x-ndjson"):
		r.Body = http.MaxBytesReader(w, r.Body, httpx.MaxBodyBytes)
		f, err := ReadNDJSON(r.Body)
		return r.URL.Query().Get("name"), f, err
	}
	if r.URL.RawQuery != "" {
		return "", nil, errors.New("?name= applies to a text/csv or NDJSON body only; a JSON upload names its dataset in the body")
	}
	var wire UploadWire
	if err := httpx.DecodeJSON(w, r, &wire); err != nil {
		return "", nil, err
	}
	switch {
	case wire.CSV != "" && wire.NDJSON == "":
		f, err := frame.ReadCSVString(wire.CSV)
		return wire.Name, f, err
	case wire.NDJSON != "" && wire.CSV == "":
		f, err := ReadNDJSON(strings.NewReader(wire.NDJSON))
		return wire.Name, f, err
	}
	return "", nil, errors.New("exactly one of csv or ndjson must be set")
}

func (h *Handler) get(w http.ResponseWriter, r *http.Request, ref string) {
	meta, ok := h.reg.GetAs(tenant.Of(r.Context()), ref)
	if !ok {
		httpx.Error(w, http.StatusNotFound, fmt.Errorf("no dataset %q", ref))
		return
	}
	httpx.WriteJSON(w, http.StatusOK, meta)
}

func (h *Handler) remove(w http.ResponseWriter, r *http.Request, ref string) {
	ok, err := h.reg.DeleteAs(tenant.Of(r.Context()), ref)
	if errors.Is(err, ErrPinned) {
		httpx.Error(w, http.StatusConflict, err)
		return
	}
	if !ok {
		httpx.Error(w, http.StatusNotFound, fmt.Errorf("no dataset %q", ref))
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]string{"deleted": ref})
}
