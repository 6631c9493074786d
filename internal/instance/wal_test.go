package instance_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/geom"
	"repro/internal/instance"
	"repro/internal/solution"
)

// fakeSolve is a deterministic, instant SolveFunc for durability tests:
// the artifact's digest and verification record are real, the sectors
// are trivial. WAL correctness is about what is logged and replayed,
// not about the geometry.
func fakeSolve(_ context.Context, pts []geom.Point, b instance.Budget) (*solution.Solution, error) {
	secs := make([][]solution.Sector, len(pts))
	for i := range secs {
		secs[i] = []solution.Sector{{Start: 0, Spread: b.Phi, Radius: 1}}
	}
	return &solution.Solution{
		Version:      solution.Version,
		PointsDigest: solution.Digest(pts),
		N:            len(pts),
		K:            b.K,
		Phi:          b.Phi,
		Algo:         "fake",
		Guarantee:    solution.Guarantee{Conn: "strong", Stretch: 2, Antennae: b.K, Spread: b.Phi},
		Sectors:      secs,
		Verified:     true,
	}, nil
}

func fakeBudget() instance.Budget { return instance.Budget{K: 2, Phi: 1.5, Algo: "fake"} }

// walManagerAt builds a durable manager rooted at dir with the given
// policy, full-solving every batch (repair needs real constructions).
func walManagerAt(dir string, policy instance.SyncPolicy, fs faultfs.FS) *instance.Manager {
	return instance.NewManager(instance.Config{
		Solve:           fakeSolve,
		RepairThreshold: -1,
		WAL:             &instance.WALConfig{Dir: dir, Policy: policy, FS: fs},
	})
}

// walFile finds an instance's log file under the WAL root.
func walFile(t *testing.T, root string) string {
	t.Helper()
	var found string
	filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Base(p) == "wal" {
			found = p
		}
		return nil
	})
	if found == "" {
		t.Fatalf("no wal file under %s", root)
	}
	return found
}

// drift returns a deterministic one-move batch for revision i.
func drift(i int) []instance.Op {
	return []instance.Op{{Op: solution.OpMove, Index: i % 8, X: float64(i) * 0.25, Y: float64(i) * 0.125}}
}

// A durable manager must come back with exact revision counters,
// pointset digests, and verification records — and If-Match must keep
// working against the recovered counter.
func TestWALRecoverExactState(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	m := walManagerAt(dir, instance.SyncAlways, nil)
	pts := testPoints(24, 9)
	if _, err := m.Create(ctx, "net-a", pts, fakeBudget()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(ctx, "", pts, fakeBudget()); err != nil { // assigned: i-1
		t.Fatal(err)
	}
	var last *instance.Snapshot
	var err error
	for i := 0; i < 5; i++ {
		if last, err = m.Apply(ctx, "net-a", 0, drift(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := walManagerAt(dir, instance.SyncAlways, nil)
	n, err := m2.Recover(ctx)
	if err != nil || n != 2 {
		t.Fatalf("Recover = %d, %v; want 2, nil", n, err)
	}
	got, err := m2.Get("net-a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rev != last.Rev || got.Sol.PointsDigest != last.Sol.PointsDigest || got.Sol.Verified != last.Sol.Verified {
		t.Fatalf("recovered rev=%d digest=%.12s verified=%v; want rev=%d digest=%.12s verified=%v",
			got.Rev, got.Sol.PointsDigest, got.Sol.Verified, last.Rev, last.Sol.PointsDigest, last.Sol.Verified)
	}
	if got.Repair != instance.RepairRecovered {
		t.Fatalf("repair = %q, want %q", got.Repair, instance.RepairRecovered)
	}
	// If-Match semantics continue at the recovered counter.
	if _, err := m2.Apply(ctx, "net-a", last.Rev-1, drift(9)); !errors.Is(err, instance.ErrConflict) {
		t.Fatalf("stale If-Match after recovery: %v, want ErrConflict", err)
	}
	next, err := m2.Apply(ctx, "net-a", last.Rev, drift(10))
	if err != nil || next.Rev != last.Rev+1 {
		t.Fatalf("Apply after recovery: rev=%v err=%v", next, err)
	}
	// The id sequence resumes past recovered assigned names.
	fresh, err := m2.Create(ctx, "", pts, fakeBudget())
	if err != nil || fresh.ID != "i-2" {
		t.Fatalf("assigned id after recovery = %q, %v; want i-2", fresh.ID, err)
	}
	m2.Close()
}

// A torn final record — the on-disk shape of a crash mid-append — is
// truncated at the last valid checksum and the instance recovers at the
// previous acknowledged revision.
func TestWALTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	m := walManagerAt(dir, instance.SyncAlways, nil)
	pts := testPoints(16, 11)
	if _, err := m.Create(ctx, "net", pts, fakeBudget()); err != nil {
		t.Fatal(err)
	}
	var prev *instance.Snapshot
	var err error
	for i := 0; i < 3; i++ {
		if prev, err = m.Apply(ctx, "net", 0, drift(i)); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()

	// Tear the last record: chop 5 bytes off the log.
	wf := walFile(t, dir)
	info, err := os.Stat(wf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wf, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	m2 := walManagerAt(dir, instance.SyncAlways, nil)
	if n, err := m2.Recover(ctx); n != 1 || err != nil {
		t.Fatalf("Recover = %d, %v", n, err)
	}
	got, err := m2.Get("net", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rev != prev.Rev-1 {
		t.Fatalf("recovered rev = %d, want %d (last intact record)", got.Rev, prev.Rev-1)
	}
	if m2.Metrics().WALTornTails.Load() != 1 {
		t.Fatalf("torn tails = %d, want 1", m2.Metrics().WALTornTails.Load())
	}
	// The truncated log accepts new appends.
	if _, err := m2.Apply(ctx, "net", got.Rev, drift(7)); err != nil {
		t.Fatal(err)
	}
	m2.Close()
}

// Compaction: once the log outgrows MaxLogBytes it is folded into a
// fresh snapshot and truncated, and recovery still lands on the exact
// revision.
func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	m := instance.NewManager(instance.Config{
		Solve:           fakeSolve,
		RepairThreshold: -1,
		WAL:             &instance.WALConfig{Dir: dir, Policy: instance.SyncAlways, MaxLogBytes: 512},
	})
	pts := testPoints(16, 13)
	if _, err := m.Create(ctx, "net", pts, fakeBudget()); err != nil {
		t.Fatal(err)
	}
	var last *instance.Snapshot
	var err error
	for i := 0; i < 40; i++ {
		if last, err = m.Apply(ctx, "net", 0, drift(i)); err != nil {
			t.Fatal(err)
		}
	}
	if m.Metrics().WALSnapshots.Load() == 0 {
		t.Fatal("no compaction despite a 512-byte log bound")
	}
	wf := walFile(t, dir)
	if info, err := os.Stat(wf); err != nil || info.Size() > 2048 {
		t.Fatalf("log not bounded: size=%v err=%v", info.Size(), err)
	}
	m.Close()

	m2 := walManagerAt(dir, instance.SyncAlways, nil)
	if n, err := m2.Recover(ctx); n != 1 || err != nil {
		t.Fatalf("Recover = %d, %v", n, err)
	}
	got, err := m2.Get("net", 0)
	if err != nil || got.Rev != last.Rev || got.Sol.PointsDigest != last.Sol.PointsDigest {
		t.Fatalf("recovered rev=%v err=%v, want rev=%d", got, err, last.Rev)
	}
	m2.Close()
}

// The snapshot a durable manager writes on Create is pinned byte for
// byte: the WAL codec may be refactored, its on-disk bytes may not move.
func TestWALSnapshotGolden(t *testing.T) {
	dir := t.TempDir()
	m := walManagerAt(dir, instance.SyncAlways, nil)
	defer m.Close()
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1.5, Y: 0.25}, {X: -2, Y: 3}, {X: 4, Y: -0.5}}
	if _, err := m.Create(context.Background(), "golden", pts, fakeBudget()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(filepath.Dir(walFile(t, dir)), "snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got, want := hex.EncodeToString(sum[:]), "2ba775961332b0e9a21461032f544b52d6c0f910a4fe4a53461446d061153127"; got != want {
		t.Fatalf("snapshot: sha256 %s, want %s (%d bytes)", got, want, len(data))
	}
}

// A WAL append that fails (ENOSPC) must not acknowledge the batch: the
// revision stays put, the error maps to ErrDurability, and once the
// disk recovers the same batch lands cleanly.
func TestWALAppendFailureNotAcknowledged(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	inj := faultfs.NewInjector(nil)
	m := walManagerAt(dir, instance.SyncAlways, inj)
	pts := testPoints(16, 17)
	if _, err := m.Create(ctx, "net", pts, fakeBudget()); err != nil {
		t.Fatal(err)
	}
	inj.Inject(faultfs.Fault{Op: faultfs.OpWrite, Path: string(os.PathSeparator) + "wal", Err: syscall.ENOSPC, PartialBytes: 6, Count: 1})
	_, err := m.Apply(ctx, "net", 0, drift(0))
	if !errors.Is(err, instance.ErrDurability) {
		t.Fatalf("Apply under ENOSPC: %v, want ErrDurability", err)
	}
	got, err := m.Get("net", 0)
	if err != nil || got.Rev != 1 {
		t.Fatalf("rev after failed append = %v, %v; want 1", got, err)
	}
	// The partial append was rolled back: the next batch appends to a
	// clean tail and survives recovery.
	snap, err := m.Apply(ctx, "net", 1, drift(1))
	if err != nil || snap.Rev != 2 {
		t.Fatalf("Apply after fault cleared: %v, %v", snap, err)
	}
	m.Close()

	m2 := walManagerAt(dir, instance.SyncAlways, nil)
	if n, err := m2.Recover(ctx); n != 1 || err != nil {
		t.Fatalf("Recover = %d, %v", n, err)
	}
	if got, err := m2.Get("net", 0); err != nil || got.Rev != 2 || got.Sol.PointsDigest != snap.Sol.PointsDigest {
		t.Fatalf("recovered %v, %v; want rev 2", got, err)
	}
	m2.Close()
}

// A create whose WAL write fails is not acknowledged and leaves no
// instance behind; the id remains free for a later create.
func TestWALCreateFailureNotAcknowledged(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	inj := faultfs.NewInjector(nil)
	m := walManagerAt(dir, instance.SyncAlways, inj)
	pts := testPoints(16, 19)
	inj.Inject(faultfs.Fault{Op: faultfs.OpRename, Path: "snapshot", Err: syscall.ENOSPC, Count: 1})
	if _, err := m.Create(ctx, "net", pts, fakeBudget()); !errors.Is(err, instance.ErrDurability) {
		t.Fatalf("Create under snapshot fault: %v, want ErrDurability", err)
	}
	if _, err := m.Get("net", 0); !errors.Is(err, instance.ErrNotFound) {
		t.Fatalf("instance visible after failed durable create: %v", err)
	}
	if _, err := m.Create(ctx, "net", pts, fakeBudget()); err != nil {
		t.Fatalf("Create after fault cleared: %v", err)
	}
	m.Close()
}

// Delete removes the durability directory: a deleted instance must not
// resurrect on restart.
func TestWALDeleteRemovesState(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	m := walManagerAt(dir, instance.SyncAlways, nil)
	pts := testPoints(16, 23)
	if _, err := m.Create(ctx, "doomed", pts, fakeBudget()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(ctx, "keeper", pts, fakeBudget()); err != nil {
		t.Fatal(err)
	}
	if !m.Delete("doomed") {
		t.Fatal("Delete = false")
	}
	m.Close()

	m2 := walManagerAt(dir, instance.SyncAlways, nil)
	if n, err := m2.Recover(ctx); n != 1 || err != nil {
		t.Fatalf("Recover = %d, %v; want only the keeper", n, err)
	}
	if _, err := m2.Get("doomed", 0); !errors.Is(err, instance.ErrNotFound) {
		t.Fatalf("deleted instance resurrected: %v", err)
	}
	m2.Close()
}

// Interval and off policies still recover to a valid prefix: after a
// clean Close (final sync) nothing is lost.
func TestWALIntervalPolicyCleanShutdown(t *testing.T) {
	for _, policy := range []instance.SyncPolicy{instance.SyncInterval, instance.SyncOff} {
		t.Run(string(policy), func(t *testing.T) {
			dir := t.TempDir()
			ctx := context.Background()
			m := walManagerAt(dir, policy, nil)
			pts := testPoints(16, 29)
			if _, err := m.Create(ctx, "net", pts, fakeBudget()); err != nil {
				t.Fatal(err)
			}
			var last *instance.Snapshot
			var err error
			for i := 0; i < 4; i++ {
				if last, err = m.Apply(ctx, "net", 0, drift(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			m2 := walManagerAt(dir, policy, nil)
			if n, err := m2.Recover(ctx); n != 1 || err != nil {
				t.Fatalf("Recover = %d, %v", n, err)
			}
			if got, err := m2.Get("net", 0); err != nil || got.Rev != last.Rev {
				t.Fatalf("recovered %v, %v; want rev %d", got, err, last.Rev)
			}
			m2.Close()
		})
	}
}

// ParseSyncPolicy vocabulary.
func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]instance.SyncPolicy{
		"":         instance.SyncInterval,
		"always":   instance.SyncAlways,
		"interval": instance.SyncInterval,
		"off":      instance.SyncOff,
	} {
		got, err := instance.ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %q, %v", in, got, err)
		}
	}
	if _, err := instance.ParseSyncPolicy("sometimes"); err == nil || !strings.Contains(err.Error(), "sometimes") {
		t.Fatalf("bad policy accepted: %v", err)
	}
}
