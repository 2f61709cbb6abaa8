package memory

import (
	"testing"

	"github.com/responsible-data-science/rds/internal/store"
	"github.com/responsible-data-science/rds/internal/store/contract"
)

// TestContract runs the cross-adapter contract suite against the
// in-memory adapter. Reopen is the identity: the medium is the
// process, so "restart" hands back the same instance and the
// reload-facing properties degenerate to plain reads.
func TestContract(t *testing.T) {
	contract.Run(t, contract.Adapter{
		Make: func(t *testing.T) store.Store { return New() },
		Reopen: func(t *testing.T, s store.Store) store.Store {
			return s
		},
		Corrupt: func(t *testing.T, s store.Store, kind store.Kind, id string) store.Store {
			if !s.(*Store).Corrupt(kind, id) {
				t.Fatalf("Corrupt(%s, %s): no such record", kind, id)
			}
			return s
		},
	})
}

// TestCorruptMissing covers the tamper hook's miss path.
func TestCorruptMissing(t *testing.T) {
	if New().Corrupt(store.KindMonitor, "nope") {
		t.Fatal("Corrupt reported success for an absent record")
	}
}
