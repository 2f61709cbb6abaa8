// Package httpx is the HTTP edge every plane of the service shares
// (serve, monitor, dataset, pipeline, tenantapi): the one route table
// (Router) with its tenant-header check, response encoding, the error
// envelope, request-body decoding with a shared size bound, and small
// wire-level defaulting helpers. It imports no plane, so every plane
// can declare its routes with it. Keeping them in one place guarantees
// the planes cannot drift apart in how they route or in their JSON
// error behavior.
package httpx

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"github.com/responsible-data-science/rds/internal/tenant"
)

// MaxBodyBytes bounds one uploaded request body (CSV payloads
// included) across every API plane: 64 MiB.
const MaxBodyBytes = 64 << 20

// TenantHeader is the request header naming the calling tenant, and
// the only way a request names one. A request without it runs as
// tenant.Default (single-tenant clients keep working unchanged); an
// invalid value is a 400 at the edge.
const TenantHeader = "X-RDS-Tenant"

// Tenant validates the request's TenantHeader once at the HTTP edge
// and, when present, returns a request whose context carries the
// explicit tenant id (tenant.NewContext). Without the header the
// request is returned untouched: tenant.Of reads it as the default
// tenant. The error, when non-nil, is a client error — map it to 400.
func Tenant(r *http.Request) (*http.Request, error) {
	raw := r.Header.Get(TenantHeader)
	if raw == "" {
		return r, nil
	}
	id, err := tenant.Normalize(raw)
	if err != nil {
		return r, err
	}
	return r.WithContext(tenant.NewContext(r.Context(), id)), nil
}

// WriteJSON renders v as indented application/json with the given
// status. Every response on every plane — success and error alike —
// goes through here, so clients can always parse the body. Encoding
// happens before the status line is written: a value that cannot
// marshal answers 500 with the error envelope instead of a success
// status over an empty body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.MarshalIndent(map[string]string{"error": "encoding response: " + err.Error()}, "", "  ")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
	_, _ = w.Write([]byte("\n"))
}

// Error renders err in the service-wide JSON error envelope
// {"error": "..."} with the given status.
func Error(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// DecodeJSON strictly decodes the request body into v: the body is
// capped at MaxBodyBytes and unknown fields are rejected, so a typo'd
// field name fails loudly instead of silently applying defaults.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding JSON body: %w", err)
	}
	return nil
}

// ReadString reads src, a size-capped request body, to the end into a
// string. size is the length the request stated (its Content-Length):
// within (0, MaxBodyBytes] the string is allocated once at that size,
// so a raw CSV body costs one copy instead of a doubling buffer's two.
// A missing length (a chunked body) or a wrong one only costs
// regrowth; the cap on src, not size, bounds what is read.
func ReadString(src io.Reader, size int64) (string, error) {
	var b strings.Builder
	if size > 0 && size <= MaxBodyBytes {
		b.Grow(int(size))
	}
	_, err := io.Copy(&b, src)
	return b.String(), err
}

// StringOr returns v, or fallback when v is empty — the wire-level
// defaulting idiom for optional string fields.
func StringOr(v, fallback string) string {
	if v == "" {
		return fallback
	}
	return v
}
