package pipeline

import (
	"testing"

	"github.com/responsible-data-science/rds/internal/provenance"
	"github.com/responsible-data-science/rds/internal/synth"
)

// TestRunLoadCarriesDatasetRef checks that a run loads its resident
// dataset with the ref as the known frame hash, so the pipeline's load
// does not hash the frame a second time: the lineage records the ref as
// given, even one that is not the frame's hash.
func TestRunLoadCarriesDatasetRef(t *testing.T) {
	f, err := synth.Credit(synth.CreditConfig{N: 200, Bias: 1.0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	loadHash := func(ref string) string {
		t.Helper()
		rs := newRunState(Spec{Name: "ref", DatasetRef: ref}, f, nil)
		if err := rs.init(); err != nil {
			t.Fatal(err)
		}
		for _, n := range rs.pipe.Lineage().Nodes() {
			if n.Kind == provenance.KindDataset {
				return n.Hash
			}
		}
		t.Fatal("no dataset node in the run's lineage")
		return ""
	}
	if got := loadHash("not-the-frame-hash"); got != "not-the-frame-hash" {
		t.Errorf("load recorded hash %q, want the dataset ref", got)
	}
	if got, want := loadHash(f.Hash()), f.Hash(); got != want {
		t.Errorf("load recorded hash %q, want %q", got, want)
	}
}
