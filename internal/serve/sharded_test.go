package serve

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/synth"
)

// TestRunAuditShardInvariance is the end-to-end determinism proof for
// the execution plane: the complete FACT report — every fairness
// metric, interval, grade, and finding — is identical whether the
// audit's row-scans run on 1 shard or many. The shard count is
// GOMAXPROCS, so the test sweeps it; the 9000-row test split spans two
// exec chunks, so more than one shard has work. This is the property
// that lets the report cache ignore the host's GOMAXPROCS and lets
// re-audits on differently provisioned hosts reproduce each other
// exactly.
func TestRunAuditShardInvariance(t *testing.T) {
	data, err := synth.Credit(synth.CreditConfig{N: 30000, Bias: 0.8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	report := func(procs int) []byte {
		runtime.GOMAXPROCS(procs)
		req := &Request{
			Dataset: "credit",
			Data:    data,
			Policy:  DefaultPolicy(),
			Spec: core.TrainSpec{
				Target: "approved", Sensitive: "group",
				Protected: "B", Reference: "A", Epochs: 20,
			},
			Seed: 5,
		}
		rep, err := RunAudit(context.Background(), req)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	want := report(1)
	for _, procs := range []int{2, 8, 16} {
		if got := report(procs); string(got) != string(want) {
			t.Errorf("GOMAXPROCS=%d: report diverged from sequential audit:\n%s\nvs\n%s", procs, got, want)
		}
	}
}
