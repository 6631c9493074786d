package fleet

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// TestSoakInprocKillRecover is the CI soak smoke: a small fleet under
// the full mixed workload with one mid-soak kill/recover cycle. Run
// under -race it doubles as the concurrency gate for the whole stack
// (engine single-flight, instance lifecycle, WAL, store). The
// assertions are the ISSUE's acceptance criteria in miniature: no
// unexpected errors, no lost acknowledged revisions, no phantom
// instances, and a sane report.
func TestSoakInprocKillRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("soak smoke skipped in -short")
	}
	cfg := Config{
		Instances:  24,
		N:          48,
		Duration:   4 * time.Second,
		Workers:    8,
		Seed:       42,
		KillCycles: 1,
		// Inject both contention slices so the 409/503 accounting paths
		// are exercised, not just the happy path.
		StaleIfMatchPct:  10,
		ShortDeadlinePct: 5,
		ShortDeadline:    500 * time.Microsecond,
		WALDir:           t.TempDir(),
		StoreDir:         t.TempDir(),
		Logf:             t.Logf,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	rep, err := Run(ctx, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Schema != Schema {
		t.Errorf("schema = %q, want %q", rep.Schema, Schema)
	}
	if rep.Totals.Unexpected != 0 {
		t.Errorf("unexpected errors = %d, want 0; samples: %v", rep.Totals.Unexpected, rep.UnexpectedSamples)
	}
	if rep.Recovery.Cycles != 1 {
		t.Errorf("recovery cycles = %d, want 1", rep.Recovery.Cycles)
	}
	if rep.Recovery.RevLosses != 0 {
		t.Errorf("lost acknowledged revisions = %d, want 0; samples: %v", rep.Recovery.RevLosses, rep.UnexpectedSamples)
	}
	if rep.Recovery.Phantoms != 0 {
		t.Errorf("phantom instances = %d, want 0; samples: %v", rep.Recovery.Phantoms, rep.UnexpectedSamples)
	}
	// Every id survives churn, so the restart must recover the full
	// fleet plus whatever churn ids were live at the kill.
	if rep.Recovery.Recovered < cfg.Instances {
		t.Errorf("recovered %d instances, want >= %d", rep.Recovery.Recovered, cfg.Instances)
	}
	// The mix must actually have run: traffic on every endpoint, both
	// injected error classes observed, and cache tiers hit.
	for _, ep := range []string{"orient", "create", "patch", "get"} {
		if rep.Endpoints[ep].Count == 0 {
			t.Errorf("endpoint %q saw no traffic", ep)
		}
	}
	if rep.Endpoints["patch"].Conflicts == 0 {
		t.Errorf("stale If-Match slice produced no 409s")
	}
	if rep.Cache.MemoryHits+rep.Cache.DiskHits == 0 {
		t.Errorf("orient pool produced no cache hits")
	}
	if rep.Repair.Incremental+rep.Repair.Full == 0 {
		t.Errorf("patches recorded no repairs")
	}
	// The server view counts exactly the engine's /orient answers:
	// instance creates and full-solve repairs go through the engine too,
	// but must not land in it.
	if sv := rep.Server; sv == nil || sv.Orient == nil || sv.Churn == nil {
		t.Errorf("server view lacks orient or churn: %+v", sv)
	} else {
		if n, client := sv.Orient.Count, rep.Endpoints["orient"].Count; n == 0 || n > client {
			t.Errorf("server orient count %d, want in (0, %d] (client orients)", n, client)
		}
		if sv.Churn.Count == 0 {
			t.Errorf("server churn view observed nothing")
		}
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report does not marshal: %v", err)
	}
}

// TestSoakNoWALSkipsKillCycles: without a WAL the harness must degrade
// to a plain soak instead of crashing a non-durable backend.
func TestSoakNoWALSkipsKillCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("soak smoke skipped in -short")
	}
	cfg := Config{
		Instances:  8,
		N:          32,
		Duration:   500 * time.Millisecond,
		Workers:    4,
		Seed:       7,
		KillCycles: 2,
		Logf:       t.Logf,
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Recovery.Cycles != 0 {
		t.Errorf("recovery cycles = %d, want 0 without a WAL", rep.Recovery.Cycles)
	}
	if rep.Totals.Unexpected != 0 {
		t.Errorf("unexpected errors = %d, want 0; samples: %v", rep.Totals.Unexpected, rep.UnexpectedSamples)
	}
	if rep.Config.WALSync != "none" {
		t.Errorf("wal_sync = %q, want none", rep.Config.WALSync)
	}
}
