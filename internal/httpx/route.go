package httpx

import (
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
)

// Route is one entry of the service's route table: a request whose
// method is Method and whose path matches Pattern goes to Handle.
//
// A pattern is a list of slash-separated literal segments with at most
// one wildcard segment, written {name} ("/v1/monitors/{id}/history").
// Paths and patterns match whole segment by segment after surrounding
// slashes are trimmed, so "/v1/monitorsX" never reaches
// "/v1/monitors". The wildcard matches exactly one non-empty segment;
// Handle receives its value as id ("" for a pattern without one).
// Query lists the query parameters Handle reads; a request carrying
// any other answers 400 before Handle runs.
type Route struct {
	Method  string
	Pattern string
	Query   []string
	Handle  func(w http.ResponseWriter, r *http.Request, id string)
}

// Router is the service's one HTTP edge. It validates the
// TenantHeader once, before dispatch (400 on an invalid id), then
// serves the first route matching both path and method, unless the
// query string does not parse or names a parameter the route does not
// declare (400 naming every such parameter, sorted). A path that no
// pattern matches answers 404; a path matched only under other methods
// answers 405 with an Allow header naming them. Errors use the JSON
// envelope.
type Router struct {
	routes []route
}

// route is a Route with its pattern split into segments.
type route struct {
	Route
	segs []string
	wild int // index of the wildcard segment, -1 without one
}

// NewRouter builds a router over routes, tried in order. It panics on
// a pattern with more than one wildcard, so a bad table fails when the
// service starts rather than on some request.
func NewRouter(routes ...Route) *Router {
	rt := &Router{routes: make([]route, len(routes))}
	for i, r := range routes {
		c := route{Route: r, segs: segments(r.Pattern), wild: -1}
		for j, s := range c.segs {
			if !strings.HasPrefix(s, "{") || !strings.HasSuffix(s, "}") {
				continue
			}
			if c.wild >= 0 {
				panic(fmt.Sprintf("httpx: pattern %q has more than one wildcard", r.Pattern))
			}
			c.wild = j
		}
		rt.routes[i] = c
	}
	return rt
}

// segments splits a path into its segments, surrounding slashes
// trimmed.
func segments(path string) []string {
	return strings.Split(strings.Trim(path, "/"), "/")
}

// match reports whether path segments segs match the route's pattern,
// returning the wildcard's value.
func (c *route) match(segs []string) (id string, ok bool) {
	if len(segs) != len(c.segs) {
		return "", false
	}
	for i, s := range c.segs {
		if i != c.wild && s != segs[i] {
			return "", false
		}
	}
	if c.wild < 0 {
		return "", true
	}
	return segs[c.wild], segs[c.wild] != ""
}

// checkQuery refuses a raw query string that does not parse or that
// names a parameter outside the route's Query.
func (c *route) checkQuery(raw string) error {
	q, err := url.ParseQuery(raw)
	if err != nil {
		return fmt.Errorf("bad query string: %w", err)
	}
	var unknown []string
	for k := range q {
		if !slices.Contains(c.Query, k) {
			unknown = append(unknown, strconv.Quote(k))
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	slices.Sort(unknown)
	return fmt.Errorf("unknown query parameter %s on %s %s", strings.Join(unknown, ", "), c.Method, c.Pattern)
}

// ServeHTTP dispatches r through the route table.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r, err := Tenant(r)
	if err != nil {
		Error(w, http.StatusBadRequest, err)
		return
	}
	segs := segments(r.URL.Path)
	var allow []string
	for i := range rt.routes {
		c := &rt.routes[i]
		id, ok := c.match(segs)
		if !ok {
			continue
		}
		if c.Method == r.Method {
			if err := c.checkQuery(r.URL.RawQuery); err != nil {
				Error(w, http.StatusBadRequest, err)
				return
			}
			c.Handle(w, r, id)
			return
		}
		if !slices.Contains(allow, c.Method) {
			allow = append(allow, c.Method)
		}
	}
	if len(allow) == 0 {
		Error(w, http.StatusNotFound, fmt.Errorf("no route %s", r.URL.Path))
		return
	}
	slices.Sort(allow)
	methods := strings.Join(allow, ", ")
	w.Header().Set("Allow", methods)
	Error(w, http.StatusMethodNotAllowed, fmt.Errorf("%s not allowed on %s (allow %s)", r.Method, r.URL.Path, methods))
}
