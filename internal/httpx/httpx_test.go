package httpx

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"github.com/responsible-data-science/rds/internal/tenant"
)

func TestWriteJSONAndErrorEnvelope(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusCreated, map[string]int{"n": 3})
	if rec.Code != http.StatusCreated {
		t.Errorf("status = %d, want 201", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var out map[string]int
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out["n"] != 3 {
		t.Errorf("body = %q (%v), want {\"n\":3}", rec.Body, err)
	}

	rec = httptest.NewRecorder()
	Error(rec, http.StatusBadRequest, errors.New("boom"))
	var env map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("error envelope not JSON: %v", err)
	}
	if env["error"] != "boom" || rec.Code != http.StatusBadRequest {
		t.Errorf("envelope = %+v status %d, want error=boom 400", env, rec.Code)
	}
}

func TestDecodeJSONRejectsUnknownFields(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(`{"known":1,"nope":2}`))
	var v struct {
		Known int `json:"known"`
	}
	if err := DecodeJSON(httptest.NewRecorder(), req, &v); err == nil {
		t.Fatal("unknown field accepted")
	}
	req = httptest.NewRequest(http.MethodPost, "/", strings.NewReader(`{"known":7}`))
	if err := DecodeJSON(httptest.NewRecorder(), req, &v); err != nil || v.Known != 7 {
		t.Fatalf("DecodeJSON = %v, known = %d, want nil and 7", err, v.Known)
	}
}

func TestTenantHeader(t *testing.T) {
	// No header: request unchanged, no explicit tenant in context.
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	got, err := Tenant(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tenant.FromContext(got.Context()); ok {
		t.Fatal("tenant set in context without header")
	}

	// Valid header: context carries the explicit id.
	req = httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set(TenantHeader, "acme")
	got, err = Tenant(req)
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := tenant.FromContext(got.Context()); !ok || id != "acme" {
		t.Fatalf("tenant in context = %q, %v; want acme, true", id, ok)
	}

	// Invalid header: client error.
	req = httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set(TenantHeader, "Not Valid")
	if _, err := Tenant(req); !errors.Is(err, tenant.ErrInvalidID) {
		t.Fatalf("Tenant err = %v, want ErrInvalidID", err)
	}
}

func TestStringOr(t *testing.T) {
	if got := StringOr("", "fb"); got != "fb" {
		t.Errorf("StringOr(\"\") = %q, want fb", got)
	}
	if got := StringOr("x", "fb"); got != "x" {
		t.Errorf("StringOr(\"x\") = %q, want x", got)
	}
}

func TestWriteJSONUnencodableValueAnswers500(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, math.NaN())
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (encoding must fail before the status line)", rec.Code)
	}
	var env map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("500 body is not the JSON error envelope: %v: %q", err, rec.Body.String())
	}
	if !strings.Contains(env["error"], "encoding response") {
		t.Fatalf("error envelope = %q, want an encoding-response message", env["error"])
	}
}

// TestReadString checks that ReadString returns the whole body whatever
// size it is told, and that a stated size spares it the regrowth.
func TestReadString(t *testing.T) {
	body := strings.Repeat("income,group\n41.5,A\n", 1<<15)
	// Hide strings.Reader's WriteTo so the body arrives in pieces, as a
	// request body does.
	src := func() io.Reader { return struct{ io.Reader }{strings.NewReader(body)} }
	for _, size := range []int64{-1, 0, 10, int64(len(body)), int64(len(body)) + 100, MaxBodyBytes + 1} {
		got, err := ReadString(src(), size)
		if err != nil || got != body {
			t.Fatalf("size %d: read %d bytes, err %v; want %d", size, len(got), err, len(body))
		}
	}
	allocated := func(size int64) uint64 {
		r := src()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, _ := ReadString(r, size)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(s)
		return after.TotalAlloc - before.TotalAlloc
	}
	// The string at the stated size, plus io.Copy's 32 KB buffer.
	if sized, unsized := allocated(int64(len(body))), allocated(-1); sized > uint64(len(body))+64<<10 || unsized <= sized {
		t.Fatalf("ReadString allocated %d bytes with the size stated, %d without, for a %d-byte body", sized, unsized, len(body))
	}
}
