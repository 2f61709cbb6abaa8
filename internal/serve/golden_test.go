//go:build amd64 && !amd64.v3

// Byte-exact goldens of whole FACT reports, produced the way the service
// produces them: AuditJob, Submit, Wait. Any change that only re-lays
// out the audit's work (training, the surrogate, hashing) must leave
// every byte of every report as it is. The build constraint keeps the
// goldens to amd64 below v3: Go may fuse multiply-adds on arm64 and on
// amd64.v3, which moves the last bits of training.
// math.Exp also takes an FMA path at run time on amd64 CPUs that have
// FMA; the goldens were generated on such a CPU.
//
// Regenerate after a deliberate report change with
//
//	go test ./internal/serve -run TestGoldenReports -update
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite the reports under testdata/golden")

// goldenCase is one audit whose report is pinned in testdata/golden.
type goldenCase struct {
	name string
	req  func(t *testing.T) *Request
}

// creditGolden audits synth.Credit at n rows, data and pipeline seeded
// with seed, under the given mitigation.
func creditGolden(n int, mit core.Mitigation, seed uint64) goldenCase {
	name := fmt.Sprintf("credit-n%d-%s-seed%d", n, mit, seed)
	return goldenCase{name: name, req: func(t *testing.T) *Request {
		data, err := synth.Credit(synth.CreditConfig{N: n, Bias: 1.0, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return &Request{
			Dataset: name,
			Data:    data,
			Policy:  DefaultPolicy(),
			Spec: core.TrainSpec{
				Target: "approved", Sensitive: "group",
				Protected: "B", Reference: "A",
				Mitigation: mit,
			},
			Seed: seed,
		}
	}}
}

// trueGroupsGolden audits a credit frame whose sensitive column has
// every seventh row's group flipped, grading fairness by the untouched
// copy (TrueGroups) and training for a non-default epoch count.
func trueGroupsGolden() goldenCase {
	const name = "credit-n2000-truegroups-epochs25-seed3"
	return goldenCase{name: name, req: func(t *testing.T) *Request {
		data, err := synth.Credit(synth.CreditConfig{N: 2000, Bias: 1.0, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		groups := data.MustCol("group").Strings()
		noisy := make([]string, len(groups))
		for i, g := range groups {
			noisy[i] = g
			if i%7 == 0 {
				noisy[i] = map[string]string{"A": "B", "B": "A"}[g]
			}
		}
		data, err = data.WithColumn(data.MustCol("group").Rename("group__true"))
		if err != nil {
			t.Fatal(err)
		}
		if data, err = data.WithColumn(frame.NewString("group", noisy).Intern()); err != nil {
			t.Fatal(err)
		}
		return &Request{
			Dataset: name,
			Data:    data,
			Policy:  DefaultPolicy(),
			Spec: core.TrainSpec{
				Target: "approved", Sensitive: "group",
				Protected: "B", Reference: "A",
				Mitigation: core.MitigateReweigh,
				Epochs:     25,
				TrueGroups: "group__true",
			},
			Seed: 3,
		}
	}}
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, n := range []int{2000, 20000} {
		for _, mit := range []core.Mitigation{core.MitigateNone, core.MitigateReweigh, core.MitigateThreshold} {
			for _, seed := range []uint64{1, 2} {
				cases = append(cases, creditGolden(n, mit, seed))
			}
		}
	}
	return append(cases, trueGroupsGolden())
}

func TestGoldenReports(t *testing.T) {
	e := NewEngine(Config{Workers: 1, CacheSize: -1})
	defer e.Close()
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			id, err := submitAudit(e, c.req(t))
			if err != nil {
				t.Fatal(err)
			}
			js, err := e.Wait(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			if js.Status != StatusDone {
				t.Fatalf("status %s: %s", js.Status, js.Error)
			}
			got, err := json.MarshalIndent(js.Report, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", c.name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report differs from %s:\n%s", path, firstDiff(string(got), string(want)))
			}
		})
	}
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
