package serve

import (
	"context"
	"encoding/json"
	"testing"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/synth"
)

// TestRunAuditShardInvariance is the end-to-end determinism proof for
// the execution plane: the complete FACT report — every fairness
// metric, interval, grade, and finding — is identical whether the
// audit's row-scans run on 1 shard or many. This is the property that
// lets the report cache ignore shard count and lets re-audits on
// differently provisioned hosts reproduce each other exactly.
func TestRunAuditShardInvariance(t *testing.T) {
	data, err := synth.Credit(synth.CreditConfig{N: 3000, Bias: 0.8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	report := func(shards int) []byte {
		req := &Request{
			Dataset: "credit",
			Data:    data,
			Policy:  DefaultPolicy(),
			Spec: core.TrainSpec{
				Target: "approved", Sensitive: "group",
				Protected: "B", Reference: "A", Epochs: 20,
			},
			Seed:   5,
			Shards: shards,
		}
		rep, err := RunAudit(context.Background(), req)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	want := report(1)
	for _, shards := range []int{2, 8, 32} {
		if got := report(shards); string(got) != string(want) {
			t.Errorf("shards=%d: report diverged from sequential audit:\n%s\nvs\n%s", shards, got, want)
		}
	}
}

// TestSubmitStampsDefaultShards: requests without an explicit shard
// count inherit the engine default.
func TestSubmitStampsDefaultShards(t *testing.T) {
	data, err := synth.Credit(synth.CreditConfig{N: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Config{Workers: 1, Shards: 3, CacheSize: -1})
	defer e.Close()
	req := &Request{
		Dataset: "credit",
		Data:    data,
		Policy:  DefaultPolicy(),
		Spec: core.TrainSpec{
			Target: "approved", Sensitive: "group",
			Protected: "B", Reference: "A", Epochs: 5,
		},
	}
	id, err := submitAudit(e, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	if req.Shards != 3 {
		t.Errorf("Submit left req.Shards = %d, want engine default 3", req.Shards)
	}
	if e.Config().Shards != 3 {
		t.Errorf("Config().Shards = %d", e.Config().Shards)
	}
}
