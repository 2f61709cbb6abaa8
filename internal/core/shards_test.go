package core

import (
	"encoding/json"
	"testing"

	"github.com/responsible-data-science/rds/internal/synth"
)

// TestAuditShardsConfigInvariant: Config.Shards changes how many
// goroutines scan the audit's test split, never the report. The
// 9,000-row test split spans two exec chunks, so an explicit count
// above 1 has more than one chunk to hand out, and 0 (GOMAXPROCS)
// agrees with both.
func TestAuditShardsConfigInvariant(t *testing.T) {
	data, err := synth.Credit(synth.CreditConfig{N: 30000, Bias: 0.8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	report := func(shards int) []byte {
		p, err := New(Config{Name: "credit", Policy: strictPolicy(), Seed: 7, Actor: "test", Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Load("credit-synth", data); err != nil {
			t.Fatal(err)
		}
		tm, err := p.Train(TrainSpec{Target: "approved", Sensitive: "group", Protected: "B", Reference: "A"})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Audit(tm)
		if err != nil {
			t.Fatalf("Shards=%d: %v", shards, err)
		}
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	want := report(1)
	for _, shards := range []int{0, 2, 4} {
		if got := report(shards); string(got) != string(want) {
			t.Errorf("Shards=%d: report diverged from the 1-shard audit:\n%s\nvs\n%s", shards, got, want)
		}
	}
}
