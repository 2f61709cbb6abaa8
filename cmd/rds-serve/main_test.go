package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/monitor"
	"github.com/responsible-data-science/rds/internal/pipeline"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/store/fsjson"
	"github.com/responsible-data-science/rds/internal/synth"
	"github.com/responsible-data-science/rds/internal/tenant"
)

// TestOpenStateWithoutDirIsNil pins the no-store path: without a state
// dir, and after a refused open, openState's store compares equal to
// nil, so every plane's nil check skips persistence instead of calling
// a nil *fsjson.Store.
func TestOpenStateWithoutDirIsNil(t *testing.T) {
	st, err := openState("")
	if err != nil || st != nil {
		t.Fatalf(`openState("") = (%#v, %v), want (nil, nil)`, st, err)
	}
	foreign := t.TempDir()
	if err := os.WriteFile(filepath.Join(foreign, "precious.txt"), []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := openState(foreign); err == nil || st != nil {
		t.Fatalf("openState(foreign dir) = (%#v, %v), want (nil, error)", st, err)
	}
	st, err = openState(t.TempDir())
	if err != nil {
		t.Fatalf("openState(empty dir): %v", err)
	}
	if _, ok := st.(*fsjson.Store); !ok {
		t.Fatalf("openState(empty dir) = %T, want *fsjson.Store", st)
	}
}

// TestRestoreCountsEveryTenant boots a second life over a state dir
// holding one default-tenant and one acme dataset: restore reports
// both as resident, not only the default tenant's.
func TestRestoreCountsEveryTenant(t *testing.T) {
	dir := t.TempDir()
	first, err := fsjson.Open(dir)
	if err != nil {
		t.Fatalf("fsjson.Open: %v", err)
	}
	written := dataset.NewRegistry(0)
	if err := written.AttachStore(first); err != nil {
		t.Fatalf("AttachStore: %v", err)
	}
	for i, ten := range []string{tenant.Default, "acme"} {
		f, err := synth.Credit(synth.CreditConfig{N: 200, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatalf("synth.Credit: %v", err)
		}
		if _, err := written.PutAs(ten, "credit", f); err != nil {
			t.Fatalf("PutAs(%s): %v", ten, err)
		}
	}

	st, err := openState(dir)
	if err != nil {
		t.Fatalf("openState: %v", err)
	}
	tenants := tenant.NewRegistry(tenant.Quotas{})
	engine := serve.NewEngine(serve.Config{Workers: 1, QueueSize: 4, JobTimeout: time.Minute, TenantQuotas: tenants.Quotas})
	defer engine.Close()
	datasets := dataset.NewRegistry(0)
	datasets.UseQuotas(tenants.Quotas)
	registry, err := monitor.NewRegistry(monitor.RegistryConfig{
		Engine:   engine,
		Datasets: datasets,
		Quotas:   tenants.Quotas,
	})
	if err != nil {
		t.Fatalf("monitor.NewRegistry: %v", err)
	}
	defer registry.Close()
	pipelines := pipeline.NewRegistry(engine, datasets, tenants.Quotas)
	restored, resident, err := restore(st, tenants, datasets, registry, pipelines)
	if err != nil || restored != 0 || resident != 2 {
		t.Fatalf("restore = (%d monitors, %d datasets, %v), want (0, 2, nil)", restored, resident, err)
	}
}
