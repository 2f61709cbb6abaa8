package ml

import (
	"fmt"
	"math"
	"strings"
)

// TreeConfig holds CART training hyperparameters.
type TreeConfig struct {
	MaxDepth   int     // maximum tree depth (default 6)
	MinLeaf    int     // minimum samples per leaf (default 5)
	MinGain    float64 // minimum Gini gain to split (default 1e-7)
	FeatureSub int     // number of features considered per split; 0 = all
	Seed       uint64  // seed for feature subsampling
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 6
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 5
	}
	if c.MinGain <= 0 {
		c.MinGain = 1e-7
	}
	return c
}

// TreeNode is one node of a CART tree. Leaves have Left == Right == nil.
type TreeNode struct {
	Feature   int     // split feature index (internal nodes)
	Threshold float64 // split threshold: x[Feature] <= Threshold goes left
	Left      *TreeNode
	Right     *TreeNode
	Prob      float64 // P(y=1) at this node (leaves; also kept for internals)
	Samples   float64 // total sample weight at the node
}

// IsLeaf reports whether the node is terminal.
func (n *TreeNode) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Tree is a trained CART binary classifier.
type Tree struct {
	Root     *TreeNode
	Features []string
	cfg      TreeConfig
}

// TrainTree fits a CART classification tree minimizing weighted Gini
// impurity. Targets must be 0/1; sample weights are honoured.
//
// Each feature is sorted once per call, rows with equal values kept in
// row order, and every split stably partitions those orders between its
// children, so no node sorts again. A node scans its candidate splits
// summing weights in that order. For unweighted data, and for weighted
// data without tied values, the sums do not depend on how tied rows are
// ordered, so the tree is the one a fresh sort at every node would give.
// Weighted data with tied values is the exception: summing tied rows'
// weights in another order can move the last bits of a gain and so,
// rarely, which split wins.
func TrainTree(d *Dataset, cfg TreeConfig) (*Tree, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.N() == 0 {
		return nil, fmt.Errorf("ml: TrainTree on empty dataset")
	}
	for i, y := range d.Y {
		if y != 0 && y != 1 {
			return nil, fmt.Errorf("ml: TrainTree target must be 0/1, row %d is %v", i, y)
		}
	}
	cfg = cfg.withDefaults()
	t := &Tree{Features: append([]string(nil), d.Features...), cfg: cfg}
	g := newTreeGrower(d, cfg)
	t.Root = g.grow(0, d.N(), 0)
	return t, nil
}

// treeGrower holds one TrainTree call's presorted working state. Every
// node owns the same segment [lo, hi) of rows and of each ord[f].
type treeGrower struct {
	cfg     TreeConfig
	y       []float64
	weights []float64   // nil means uniform
	cols    [][]float64 // cols[f][i] is row i's value of feature f
	rows    []int32     // each node's rows in ascending order
	ord     [][]int32   // ord[f]: each node's rows sorted by feature f
	goLeft  []bool      // by row: the split being applied sends it left
	buf     []int32     // scratch for stable partitions
}

func newTreeGrower(d *Dataset, cfg TreeConfig) *treeGrower {
	n, dim := d.N(), d.D()
	g := &treeGrower{
		cfg:     cfg,
		y:       d.Y,
		weights: d.Weights,
		cols:    make([][]float64, dim),
		rows:    make([]int32, n),
		ord:     make([][]int32, dim),
		goLeft:  make([]bool, n),
		buf:     make([]int32, n),
	}
	for i := range g.rows {
		g.rows[i] = int32(i)
	}
	colBuf := make([]float64, dim*n)
	ordBuf := make([]int32, dim*n)
	var rs radixScratch
	for f := 0; f < dim; f++ {
		col := colBuf[f*n : (f+1)*n : (f+1)*n]
		for i, row := range d.X {
			col[i] = row[f]
		}
		g.cols[f] = col
		g.ord[f] = rs.argsort(col, ordBuf[f*n:(f+1)*n:(f+1)*n])
	}
	return g
}

// radixScratch is argsort's reusable working memory.
type radixScratch struct {
	keys, keyTmp []uint64
	ordTmp       []int32
}

// argsort fills ord with the indices of vals in ascending order, equal
// values in index order, and returns it. It is a stable LSD radix sort,
// 11 bits a pass, over keys whose unsigned order is the floats' order
// (NaN-free input; -0 is keyed as +0, its equal); a pass is skipped when
// every key has the same digit there, as one-hot columns mostly do.
func (rs *radixScratch) argsort(vals []float64, ord []int32) []int32 {
	n := len(vals)
	if cap(rs.keys) < n {
		rs.keys, rs.keyTmp, rs.ordTmp = make([]uint64, n), make([]uint64, n), make([]int32, n)
	}
	keys, keyTmp, ordTmp := rs.keys[:n], rs.keyTmp[:n], rs.ordTmp[:n]
	out := ord
	const bits, digits = 11, 6
	const buckets = 1 << bits
	var counts [digits][buckets]int32
	for i, v := range vals {
		b := math.Float64bits(v)
		if v == 0 {
			b = 0
		}
		k := b ^ (uint64(int64(b)>>63) | 1<<63)
		keys[i] = k
		ord[i] = int32(i)
		for d := 0; d < digits; d++ {
			counts[d][(k>>(bits*d))&(buckets-1)]++
		}
	}
	for d := 0; d < digits && n > 1; d++ {
		c := &counts[d]
		if c[(keys[0]>>(bits*d))&(buckets-1)] == int32(n) {
			continue
		}
		var sum int32
		for b := range c {
			c[b], sum = sum, sum+c[b]
		}
		for j, k := range keys {
			b := (k >> (bits * d)) & (buckets - 1)
			keyTmp[c[b]], ordTmp[c[b]] = k, ord[j]
			c[b]++
		}
		keys, keyTmp = keyTmp, keys
		ord, ordTmp = ordTmp, ord
	}
	copy(out, ord) // a no-op unless an odd number of passes ran
	return out
}

func (g *treeGrower) weight(i int32) float64 {
	if g.weights == nil {
		return 1
	}
	return g.weights[i]
}

func gini(wTotal, wPos float64) float64 {
	if wTotal == 0 {
		return 0
	}
	p := wPos / wTotal
	return 2 * p * (1 - p)
}

// grow builds the subtree over the rows in segment [lo, hi).
func (g *treeGrower) grow(lo, hi, depth int) *TreeNode {
	var wTotal, wPos float64
	for _, i := range g.rows[lo:hi] {
		w := g.weight(i)
		wTotal += w
		if g.y[i] == 1 {
			wPos += w
		}
	}
	node := &TreeNode{Samples: wTotal}
	if wTotal > 0 {
		node.Prob = wPos / wTotal
	}
	size := hi - lo
	if depth >= g.cfg.MaxDepth || size < 2*g.cfg.MinLeaf || wPos == 0 || wPos == wTotal {
		return node
	}
	bestGain := g.cfg.MinGain
	bestFeature := -1
	var bestThreshold float64
	parentImpurity := gini(wTotal, wPos)

	for f, col := range g.cols {
		order := g.ord[f][lo:hi]
		// Scan split points between distinct values.
		var leftW, leftPos float64
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			w := g.weight(i)
			leftW += w
			if g.y[i] == 1 {
				leftPos += w
			}
			v, next := col[i], col[order[k+1]]
			if v == next {
				continue
			}
			if k+1 < g.cfg.MinLeaf || len(order)-k-1 < g.cfg.MinLeaf {
				continue
			}
			rightW := wTotal - leftW
			rightPos := wPos - leftPos
			if leftW == 0 || rightW == 0 {
				continue
			}
			childImpurity := (leftW*gini(leftW, leftPos) + rightW*gini(rightW, rightPos)) / wTotal
			gain := parentImpurity - childImpurity
			if gain > bestGain {
				bestGain = gain
				bestFeature = f
				bestThreshold = (v + next) / 2
			}
		}
	}
	if bestFeature < 0 {
		return node
	}
	nLeft := 0
	for _, i := range g.rows[lo:hi] {
		left := g.cols[bestFeature][i] <= bestThreshold
		g.goLeft[i] = left
		if left {
			nLeft++
		}
	}
	if nLeft == 0 || nLeft == size {
		return node
	}
	g.partition(g.rows[lo:hi])
	for _, o := range g.ord {
		g.partition(o[lo:hi])
	}
	node.Feature = bestFeature
	node.Threshold = bestThreshold
	node.Left = g.grow(lo, lo+nLeft, depth+1)
	node.Right = g.grow(lo+nLeft, hi, depth+1)
	return node
}

// partition stably moves seg's left-going rows to its front.
func (g *treeGrower) partition(seg []int32) {
	l, r := 0, 0
	for _, i := range seg {
		if g.goLeft[i] {
			seg[l] = i
			l++
		} else {
			g.buf[r] = i
			r++
		}
	}
	copy(seg[l:], g.buf[:r])
}

// PredictProba returns the leaf probability for x.
func (t *Tree) PredictProba(x []float64) float64 {
	n := t.Root
	for !n.IsLeaf() {
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Prob
}

// Depth returns the depth of the tree (a single leaf has depth 0).
func (t *Tree) Depth() int { return nodeDepth(t.Root) }

func nodeDepth(n *TreeNode) int {
	if n == nil || n.IsLeaf() {
		return 0
	}
	l, r := nodeDepth(n.Left), nodeDepth(n.Right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// LeafCount returns the number of leaves.
func (t *Tree) LeafCount() int { return countLeaves(t.Root) }

func countLeaves(n *TreeNode) int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return 1
	}
	return countLeaves(n.Left) + countLeaves(n.Right)
}

// Rules renders the tree as human-readable decision rules, the tree's
// native transparency artifact (FACT Q4).
func (t *Tree) Rules() []string {
	var out []string
	var walk func(n *TreeNode, path []string)
	walk = func(n *TreeNode, path []string) {
		if n.IsLeaf() {
			cond := strings.Join(path, " AND ")
			if cond == "" {
				cond = "TRUE"
			}
			out = append(out, fmt.Sprintf("IF %s THEN P(y=1)=%.3f (n=%.0f)", cond, n.Prob, n.Samples))
			return
		}
		name := fmt.Sprintf("x%d", n.Feature)
		if n.Feature < len(t.Features) {
			name = t.Features[n.Feature]
		}
		walk(n.Left, append(path, fmt.Sprintf("%s <= %.4g", name, n.Threshold)))
		walk(n.Right, append(path[:len(path):len(path)], fmt.Sprintf("%s > %.4g", name, n.Threshold)))
	}
	walk(t.Root, nil)
	return out
}
