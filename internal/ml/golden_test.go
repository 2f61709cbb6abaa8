//go:build amd64 && !amd64.v3

// Bit-exact goldens for the trainers the FACT audit runs. Every weight,
// threshold and leaf statistic is pinned as a hex float, so any change to
// how training lays out its arithmetic must keep every bit. The build
// constraint keeps the goldens to amd64 below v3: Go may fuse
// multiply-adds on arm64 and on amd64.v3, which moves the last bits.
// math.Exp also takes an FMA path at run time on amd64 CPUs that have
// FMA; the goldens were generated on such a CPU.
//
// Regenerate after a deliberate model change with
//
//	go test ./internal/ml -run TestGolden -update
package ml

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"github.com/responsible-data-science/rds/internal/rng"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_models.json")

const goldenModelsPath = "testdata/golden_models.json"

// goldenModels is the file layout: one entry per named case.
type goldenModels struct {
	Logistic map[string]goldenLogistic `json:"logistic"`
	Tree     map[string][]string       `json:"tree"`
}

type goldenLogistic struct {
	Weights []string `json:"weights"`
	Bias    string   `json:"bias"`
}

func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func goldenOf(m *Logistic) goldenLogistic {
	g := goldenLogistic{Bias: hexFloat(m.Bias)}
	for _, w := range m.Weights {
		g.Weights = append(g.Weights, hexFloat(w))
	}
	return g
}

// logisticGoldenData draws n rows over five features on different
// scales with a noisy linear label. weighted adds per-row weights in
// [0, 2) with every fifth weight zero.
func logisticGoldenData(n int, weighted bool, seed uint64) *Dataset {
	src := rng.New(seed)
	d := &Dataset{Features: []string{"a", "b", "c", "d", "e"}}
	for i := 0; i < n; i++ {
		x := []float64{
			src.Normal(50, 15),
			src.Normal(0, 0.2),
			float64(src.Intn(6)),
			src.Exp(0.3),
			src.Float64(),
		}
		z := 0.04*(x[0]-50) - 3*x[1] + 0.3*(x[2]-2.5) - 0.2*x[3] + src.Normal(0, 0.5)
		y := 0.0
		if src.Bernoulli(Sigmoid(z)) {
			y = 1
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, y)
		if weighted {
			w := 2 * src.Float64()
			if i%5 == 0 {
				w = 0
			}
			d.Weights = append(d.Weights, w)
		}
	}
	return d
}

// treeGoldenData draws n rows. ties=true uses few-valued features, so
// nearly every split point sits among tied values; ties=false uses
// continuous features and per-row weights.
func treeGoldenData(n int, ties bool, seed uint64) *Dataset {
	src := rng.New(seed)
	d := &Dataset{Features: []string{"a", "b", "c", "d"}}
	for i := 0; i < n; i++ {
		var x []float64
		if ties {
			x = []float64{
				float64(src.Intn(4)),
				float64(src.Intn(3)),
				float64(int(src.Normal(5, 2)*2)) / 2,
				float64(src.Intn(2)),
			}
		} else {
			x = []float64{src.Normal(0, 1), src.Normal(3, 2), src.Exp(1), src.Float64()}
		}
		z := 0.8*(x[0]-1.5) - 0.6*(x[1]-1) + 0.3*(x[2]-5) + 0.5*x[3] + src.Normal(0, 0.7)
		y := 0.0
		if z > 0 {
			y = 1
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, y)
		if !ties {
			d.Weights = append(d.Weights, 0.1+2.9*src.Float64())
		}
	}
	return d
}

// treeDump renders the tree in preorder, one line per node, with every
// float as a hex literal.
func treeDump(t *Tree) []string {
	var out []string
	var walk func(n *TreeNode)
	walk = func(n *TreeNode) {
		if n.IsLeaf() {
			out = append(out, fmt.Sprintf("leaf p=%s s=%s", hexFloat(n.Prob), hexFloat(n.Samples)))
			return
		}
		out = append(out, fmt.Sprintf("split f=%d t=%s p=%s s=%s",
			n.Feature, hexFloat(n.Threshold), hexFloat(n.Prob), hexFloat(n.Samples)))
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
	return out
}

// computeGoldenModels trains every golden case.
func computeGoldenModels(t *testing.T) goldenModels {
	t.Helper()
	got := goldenModels{Logistic: map[string]goldenLogistic{}, Tree: map[string][]string{}}
	logistic := []struct {
		name string
		data *Dataset
		cfg  LogisticConfig
	}{
		// Every fifth row carries zero weight, and the ridge penalty is
		// on.
		{"weighted-zero-weights-l2", logisticGoldenData(1003, true, 7),
			LogisticConfig{Epochs: 9, L2: 0.01}},
		// The audit's configuration: defaults but the iteration cap.
		{"unweighted-defaults", logisticGoldenData(1500, false, 11),
			LogisticConfig{Epochs: 40, Seed: 3}},
	}
	for _, c := range logistic {
		m, err := TrainLogistic(c.data, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got.Logistic[c.name] = goldenOf(m)
	}
	// The SGD reference reproduces, bit for bit, what TrainLogistic
	// returned on these cases before it moved to Newton's method.
	got.Logistic["sgd-weighted-zero-weights-l2-ragged-batch"] = goldenOf(trainLogisticSGD(
		logisticGoldenData(1003, true, 7), sgdConfig{LearningRate: 0.05, Epochs: 9, L2: 0.01, BatchSize: 24, Seed: 9}))
	got.Logistic["sgd-unweighted-defaults"] = goldenOf(trainLogisticSGD(
		logisticGoldenData(1500, false, 11), sgdConfig{Epochs: 40, Seed: 3}))
	tree := []struct {
		name string
		data *Dataset
		cfg  TreeConfig
	}{
		{"unweighted-heavy-ties", treeGoldenData(1500, true, 5), TreeConfig{MaxDepth: 6, MinLeaf: 5}},
		{"weighted-no-ties", treeGoldenData(1500, false, 6), TreeConfig{MaxDepth: 5, MinLeaf: 5}},
	}
	for _, c := range tree {
		tr, err := TrainTree(c.data, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got.Tree[c.name] = treeDump(tr)
	}
	return got
}

func TestGoldenModels(t *testing.T) {
	got := computeGoldenModels(t)
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenModelsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenModelsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenModelsPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want goldenModels
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want.Logistic {
		if g := got.Logistic[name]; !reflect.DeepEqual(g, w) {
			t.Errorf("logistic %s:\n got %+v\nwant %+v", name, g, w)
		}
	}
	for name, w := range want.Tree {
		g := got.Tree[name]
		if len(g) != len(w) {
			t.Errorf("tree %s: %d nodes, want %d", name, len(g), len(w))
			continue
		}
		for i := range w {
			if g[i] != w[i] {
				t.Errorf("tree %s node %d:\n got %s\nwant %s", name, i, g[i], w[i])
				break
			}
		}
	}
	if len(got.Logistic) != len(want.Logistic) || len(got.Tree) != len(want.Tree) {
		t.Errorf("golden file has %d logistic and %d tree cases, the test %d and %d",
			len(want.Logistic), len(want.Tree), len(got.Logistic), len(got.Tree))
	}
}
