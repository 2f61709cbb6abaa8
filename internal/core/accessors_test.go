package core

import (
	"testing"

	"github.com/responsible-data-science/rds/internal/privacy"
)

func TestPipelineAccessors(t *testing.T) {
	p, err := New(Config{Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Budget() != nil {
		t.Errorf("fresh pipeline Budget = %v, want nil", p.Budget())
	}
	b, err := privacy.NewBudget(1.0, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	p.AttachBudget(b)
	if p.Budget() != b {
		t.Error("Budget() did not return the attached accountant")
	}
	if p.Ledger() == nil {
		t.Error("Ledger() = nil, want the pipeline's hypothesis ledger")
	}
	if p.Lineage() == nil || p.AuditLog() == nil {
		t.Error("Lineage/AuditLog should be non-nil on a fresh pipeline")
	}
}

func TestTrainSpecWithDefaultColumns(t *testing.T) {
	got := TrainSpec{Epochs: 7}.WithDefaultColumns()
	want := TrainSpec{Target: "approved", Sensitive: "group", Protected: "B", Reference: "A", Epochs: 7}
	if got.Target != want.Target || got.Sensitive != want.Sensitive || got.Protected != want.Protected ||
		got.Reference != want.Reference || got.Epochs != want.Epochs {
		t.Errorf("defaults = %+v, want %+v", got, want)
	}
	set := TrainSpec{Target: "y", Sensitive: "race", Protected: "p", Reference: "r"}
	if got := set.WithDefaultColumns(); got.Target != "y" || got.Sensitive != "race" || got.Protected != "p" || got.Reference != "r" {
		t.Errorf("set columns overwritten: %+v", got)
	}
}
