package httpx

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/responsible-data-science/rds/internal/tenant"
)

// fuzzRoutes is a small route table with literal, leaf-wildcard and
// inner-wildcard patterns, two methods on one pattern, one method on
// several patterns, and routes that declare query parameters beside
// routes that declare none.
var fuzzRoutes = []struct {
	method, pattern string
	query           []string
}{
	{http.MethodGet, "/v1/things", nil},
	{http.MethodPost, "/v1/things", []string{"name", "seed"}},
	{http.MethodGet, "/v1/things/{id}", nil},
	{http.MethodDelete, "/v1/things/{id}", nil},
	{http.MethodPost, "/v1/things/{id}/act", []string{"dry_run"}},
	{http.MethodGet, "/healthz", nil},
}

// FuzzRouter sends arbitrary methods, paths, raw query strings and
// tenant headers through a small route table and checks the router
// against a regexp oracle of whole-segment matching: no panic, always
// JSON, and a status that is the matched handler's own (with the
// oracle's wildcard value, never empty and never holding a slash), or
// 400 for a bad tenant header, 400 when the matched route's query does
// not parse or names a parameter the route does not declare (the error
// naming every such parameter, sorted), 404 when no pattern matches,
// or 405 with an Allow header naming exactly the methods whose
// patterns matched.
func FuzzRouter(f *testing.F) {
	for _, seed := range [][4]string{
		{"GET", "/v1/things", "", ""},
		{"DELETE", "/v1/thingsX", "", ""},
		{"PUT", "/v1/things/a", "", ""},
		{"POST", "//v1/things//a/act/", "", ""},
		{"POST", "/v1/things//act", "", ""},
		{"POST", "/v1/things/a/act//", "", "acme"},
		{"GET", "/v1/things/a/b", "", ""},
		{"DELETE", "/v1/things/\xff", "", ""},
		{"GET", "/healthz", "", "Bad Tenant"},
		{"", "", "", ""},
		{"POST", "/v1/things", "name=a&seed=2", ""},
		{"POST", "/v1/things", "name=a&tenant=acme&epochs=1", "acme"},
		{"GET", "/v1/things", "tenant=", ""},
		{"POST", "/v1/things/a/act", "dry_run&dry_run=1", ""},
		{"POST", "/v1/things/a/act", "dry%5Frun=1", ""},
		{"POST", "/v1/things", "name=a;seed=2", ""},
		{"POST", "/v1/things", "%zz=1", ""},
		{"DELETE", "/v1/things", "bogus=1", ""},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	routes := make([]Route, len(fuzzRoutes))
	oracle := make([]*regexp.Regexp, len(fuzzRoutes))
	for i, fr := range fuzzRoutes {
		i := i
		routes[i] = Route{Method: fr.method, Pattern: fr.pattern, Query: fr.query, Handle: func(w http.ResponseWriter, _ *http.Request, id string) {
			// As bytes, so an id that is not valid UTF-8 survives JSON.
			WriteJSON(w, http.StatusOK, map[string]any{"route": i, "id": []byte(id)})
		}}
		segs := strings.Split(strings.Trim(fr.pattern, "/"), "/")
		for j, s := range segs {
			if strings.HasPrefix(s, "{") {
				segs[j] = "([^/]+)"
			} else {
				segs[j] = regexp.QuoteMeta(s)
			}
		}
		oracle[i] = regexp.MustCompile("^/*" + strings.Join(segs, "/") + "/*$")
	}
	rt := NewRouter(routes...)

	f.Fuzz(func(t *testing.T, method, path, rawQuery, ten string) {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		r.Method, r.URL.Path, r.URL.RawQuery = method, path, rawQuery
		if ten != "" {
			r.Header.Set(TenantHeader, ten)
		}
		w := httptest.NewRecorder()
		rt.ServeHTTP(w, r)
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type = %q, want application/json", ct)
		}

		served, wantID := -1, ""
		var allow []string
		for i, re := range oracle {
			m := re.FindStringSubmatch(path)
			switch {
			case m == nil:
			case fuzzRoutes[i].method == method:
				if served < 0 {
					served = i
					if len(m) > 1 {
						wantID = m[1]
					}
				}
			case !slices.Contains(allow, fuzzRoutes[i].method):
				allow = append(allow, fuzzRoutes[i].method)
			}
		}
		slices.Sort(allow)
		_, terr := tenant.Normalize(ten)
		// wantErr is what a 400 from the query check must say: the
		// parse failure, or every undeclared parameter, sorted.
		var wantErr string
		if served >= 0 {
			q, qerr := url.ParseQuery(rawQuery)
			var unknown []string
			for k := range q {
				if !slices.Contains(fuzzRoutes[served].query, k) {
					unknown = append(unknown, strconv.Quote(k))
				}
			}
			slices.Sort(unknown)
			switch {
			case qerr != nil:
				wantErr = "bad query string"
			case len(unknown) > 0:
				wantErr = "unknown query parameter " + strings.Join(unknown, ", ") + " on "
			}
		}

		want := http.StatusNotFound
		switch {
		case terr != nil:
			want = http.StatusBadRequest
		case wantErr != "":
			want = http.StatusBadRequest
		case served >= 0:
			want = http.StatusOK
		case len(allow) > 0:
			want = http.StatusMethodNotAllowed
		}
		if w.Code != want {
			t.Fatalf("%q %q?%q (tenant %q) = %d, want %d: %s", method, path, rawQuery, ten, w.Code, want, w.Body)
		}
		if terr == nil && wantErr != "" {
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, wantErr) {
				t.Fatalf("%q %q?%q: error %q (%v), want it to contain %q", method, path, rawQuery, e.Error, err, wantErr)
			}
		}
		gotAllow := w.Header().Get("Allow")
		if want == http.StatusMethodNotAllowed {
			if wantAllow := strings.Join(allow, ", "); gotAllow != wantAllow {
				t.Fatalf("%q %q: Allow = %q, want %q", method, path, gotAllow, wantAllow)
			}
		} else if gotAllow != "" {
			t.Fatalf("%q %q = %d with Allow %q", method, path, w.Code, gotAllow)
		}
		if want != http.StatusOK {
			return
		}
		var body struct {
			Route int    `json:"route"`
			ID    []byte `json:"id"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatalf("handler body %q: %v", w.Body, err)
		}
		id := string(body.ID)
		if body.Route != served || id != wantID {
			t.Fatalf("%q %q served route %d with id %q, want route %d with id %q", method, path, body.Route, id, served, wantID)
		}
		if strings.Contains(fuzzRoutes[served].pattern, "{") && (id == "" || strings.Contains(id, "/")) {
			t.Fatalf("%q %q: wildcard value %q is empty or holds a slash", method, path, id)
		}
	})
}

func TestNewRouterRejectsTwoWildcards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRouter accepted a pattern with two wildcards")
		}
	}()
	NewRouter(Route{Method: http.MethodGet, Pattern: "/v1/{a}/{b}"})
}
