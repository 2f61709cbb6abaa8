// Package provenance implements the accountability half of FACT Q4: "the
// journey from raw data to meaningful inferences involves multiple steps
// and actors, thus accountability and comprehensibility are essential for
// transparency."
//
// It records every pipeline step in a lineage DAG whose nodes carry
// SHA-256 content hashes, keeps a hash-chained append-only audit log that
// makes tampering detectable, and renders model cards / dataset
// datasheets from the recorded facts.
package provenance

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/responsible-data-science/rds/internal/frame"
)

// NodeKind classifies lineage nodes.
type NodeKind string

// Node kinds.
const (
	KindDataset   NodeKind = "dataset"
	KindTransform NodeKind = "transform"
	KindModel     NodeKind = "model"
	KindDecision  NodeKind = "decision"
	KindReport    NodeKind = "report"
)

// Node is one step in the lineage DAG.
type Node struct {
	ID      string
	Kind    NodeKind
	Label   string
	Hash    string            // content hash (hex SHA-256)
	Inputs  []string          // parent node IDs
	Meta    map[string]string // free-form facts (seed, params, actor)
	Created time.Time
}

// Graph is an append-only lineage DAG. Not safe for concurrent use.
type Graph struct {
	nodes map[string]*Node
	order []string // insertion order (a valid topological order)
	clock func() time.Time
}

// NewGraph creates an empty lineage graph.
func NewGraph() *Graph {
	return &Graph{nodes: map[string]*Node{}, clock: time.Now}
}

// SetClock overrides the timestamp source (tests).
func (g *Graph) SetClock(clock func() time.Time) { g.clock = clock }

// Add appends a node. All inputs must already exist (enforcing acyclicity
// by construction), and IDs must be unique.
func (g *Graph) Add(id string, kind NodeKind, label, hash string, inputs []string, meta map[string]string) (*Node, error) {
	if id == "" {
		return nil, fmt.Errorf("provenance: empty node id")
	}
	if _, dup := g.nodes[id]; dup {
		return nil, fmt.Errorf("provenance: duplicate node %q", id)
	}
	for _, in := range inputs {
		if _, ok := g.nodes[in]; !ok {
			return nil, fmt.Errorf("provenance: node %q references unknown input %q", id, in)
		}
	}
	m := map[string]string{}
	for k, v := range meta {
		m[k] = v
	}
	n := &Node{
		ID:      id,
		Kind:    kind,
		Label:   label,
		Hash:    hash,
		Inputs:  append([]string(nil), inputs...),
		Meta:    m,
		Created: g.clock(),
	}
	g.nodes[id] = n
	g.order = append(g.order, id)
	return n, nil
}

// Get returns a node by ID.
func (g *Graph) Get(id string) (*Node, bool) {
	n, ok := g.nodes[id]
	return n, ok
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.order) }

// Nodes returns the nodes in insertion (topological) order.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, len(g.order))
	for i, id := range g.order {
		out[i] = g.nodes[id]
	}
	return out
}

// Ancestry returns every transitive input of the node, deduplicated, in
// topological order — the full provenance of one artifact.
func (g *Graph) Ancestry(id string) ([]*Node, error) {
	if _, ok := g.nodes[id]; !ok {
		return nil, fmt.Errorf("provenance: unknown node %q", id)
	}
	seen := map[string]bool{}
	var visit func(string)
	visit = func(cur string) {
		for _, in := range g.nodes[cur].Inputs {
			if !seen[in] {
				seen[in] = true
				visit(in)
			}
		}
	}
	visit(id)
	var out []*Node
	for _, nid := range g.order {
		if seen[nid] {
			out = append(out, g.nodes[nid])
		}
	}
	return out, nil
}

// Leaves returns nodes that no other node consumes (current artifacts).
func (g *Graph) Leaves() []*Node {
	consumed := map[string]bool{}
	for _, id := range g.order {
		for _, in := range g.nodes[id].Inputs {
			consumed[in] = true
		}
	}
	var out []*Node
	for _, id := range g.order {
		if !consumed[id] {
			out = append(out, g.nodes[id])
		}
	}
	return out
}

// Render prints the graph as an indented text tree, one line per node.
func (g *Graph) Render() string {
	var b strings.Builder
	for _, id := range g.order {
		n := g.nodes[id]
		fmt.Fprintf(&b, "%-10s %-24s %s", n.Kind, n.ID, n.Label)
		if len(n.Inputs) > 0 {
			fmt.Fprintf(&b, "  <- %s", strings.Join(n.Inputs, ", "))
		}
		if n.Hash != "" {
			fmt.Fprintf(&b, "  [%.12s]", n.Hash)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// HashFrame computes the canonical content hash of a frame (SHA-256 over
// names, dtypes, null masks and values — see frame.Hash). Identical
// frames hash identically; any value, column, or order change produces a
// different hash.
func HashFrame(f *frame.Frame) (string, error) {
	if f == nil {
		return "", fmt.Errorf("provenance: hashing nil frame")
	}
	return f.Hash(), nil
}

// HashStrings hashes a list of strings with length framing (no
// concatenation ambiguity).
func HashStrings(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// SortedMetaString renders metadata deterministically for hashing/display.
func SortedMetaString(meta map[string]string) string {
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", k, meta[k])
	}
	return b.String()
}
