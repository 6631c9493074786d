// Command fleetsim soaks the orientation service the way a production
// fleet would: hundreds-to-thousands of live instances across the
// generator families and budget mix, sustained /orient + instance
// PATCH/GET/delta traffic with configurable arrival rates, injected
// If-Match contention and tight deadlines, delete/re-create churn, and
// mid-soak kill/recover cycles that exercise WAL recovery. The run is
// appended as one machine-readable row to BENCH_fleet.json
// (validated by `benchjson -check-fleet`).
//
// The engine and the instance manager run in this process, so
// `go run -race` soaks the whole stack under the race detector; kill
// cycles quiesce traffic, close the manager and replay its WAL.
//
// fleetsim exits non-zero when the soak saw unexpected errors, lost an
// acknowledged revision across recovery, or recovered a deleted
// instance — so CI can gate directly on its exit code.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fleet"
)

func main() {
	cfg := fleet.Config{}
	flag.IntVar(&cfg.Instances, "instances", 256, "long-lived instances in the fleet")
	flag.IntVar(&cfg.N, "n", 120, "sensors per instance and per orient request")
	flag.DurationVar(&cfg.Duration, "duration", 30*time.Second, "total traffic time, split across kill cycles")
	flag.IntVar(&cfg.Workers, "workers", 16, "concurrent traffic generators")
	flag.Int64Var(&cfg.Seed, "seed", 1, "deterministic workload seed")
	flag.Float64Var(&cfg.OpsPerSec, "ops-per-sec", 0, "global arrival rate; 0 = unthrottled")
	flag.IntVar(&cfg.KillCycles, "kill-cycles", 1, "mid-soak kill/recover cycles (replays the -wal-dir WAL)")
	flag.IntVar(&cfg.MaxInflight, "max-inflight", 0, "client-side orient inflight bound; excess is shed like a 429")
	flag.IntVar(&cfg.StaleIfMatchPct, "stale-ifmatch-pct", 5, "percent of patches sent with a stale If-Match (expect 409)")
	flag.IntVar(&cfg.ShortDeadlinePct, "short-deadline-pct", 2, "percent of ops run under -short-deadline (expect 503)")
	flag.DurationVar(&cfg.Deadline, "deadline", 30*time.Second, "per-op deadline for normal traffic")
	flag.DurationVar(&cfg.ShortDeadline, "short-deadline", 2*time.Millisecond, "injected tight deadline")
	flag.IntVar(&cfg.History, "history", 4, "revisions retained per instance")
	flag.StringVar(&cfg.WALDir, "wal-dir", "", "instance WAL root; empty = auto temp dir when kill cycles are on")
	flag.StringVar(&cfg.StoreDir, "store", "", "durable artifact store dir; empty disables the disk tier")
	flag.Int64Var(&cfg.StoreBytes, "store-max-bytes", 0, "disk store byte cap; 0 = default")
	out := flag.String("o", "BENCH_fleet.json", "append the run's row to this file; - = stdout only")
	quiet := flag.Bool("q", false, "suppress progress lines")
	flag.Parse()

	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	// Kill cycles need a WAL; default to a scratch one rather than
	// silently degrading an explicitly requested crash soak.
	if cfg.WALDir == "" && cfg.KillCycles > 0 {
		dir, err := os.MkdirTemp("", "fleetsim-wal")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		cfg.WALDir = dir
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := fleet.Run(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	summarize(rep)
	if *out != "-" {
		if err := appendRow(*out, rep); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "fleetsim: wrote", *out)
	} else {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	}
	if rep.Totals.Unexpected > 0 || rep.Recovery.RevLosses > 0 || rep.Recovery.Phantoms > 0 {
		fmt.Fprintf(os.Stderr, "fleetsim: FAILED: %d unexpected errors, %d lost revisions, %d phantoms\n",
			rep.Totals.Unexpected, rep.Recovery.RevLosses, rep.Recovery.Phantoms)
		for _, s := range rep.UnexpectedSamples {
			fmt.Fprintln(os.Stderr, "  sample:", s)
		}
		os.Exit(1)
	}
}

// appendRow adds the report to the file's row array (creating it), so
// BENCH_fleet.json accumulates a trajectory of runs.
func appendRow(path string, rep *fleet.Report) error {
	var rows []json.RawMessage
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &rows); err != nil {
			return fmt.Errorf("fleetsim: %s exists but is not a row array: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	row, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	rows = append(rows, row)
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// summarize prints the human-readable digest of the run.
func summarize(rep *fleet.Report) {
	fmt.Fprintf(os.Stderr, "fleetsim: %d instances, %d workers, %.0fs\n",
		rep.Config.Instances, rep.Config.Workers, rep.Config.DurationSec)
	for _, ep := range []string{"orient", "create", "patch", "get", "delta", "delete"} {
		st, ok := rep.Endpoints[ep]
		if !ok || st.Count == 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "  %-7s %8d ops  p50 %8.3fms  p99 %8.3fms  p999 %8.3fms  409=%d 429=%d 503=%d race=%d unexpected=%d\n",
			ep, st.Count, st.P50ms, st.P99ms, st.P999ms, st.Conflicts, st.Sheds, st.Deadlines, st.RaceErrors, st.Unexpected)
	}
	fmt.Fprintf(os.Stderr, "  totals  %8d ops  %.0f ops/s  cache hit %.2f%%  incremental repair %.2f%%\n",
		rep.Totals.Ops, rep.Totals.OpsPerSec, rep.Cache.HitRatio*100, rep.Repair.IncrementalRatio*100)
	fmt.Fprintf(os.Stderr, "  recovery: %d cycles, %d recovered, %d lost revisions, %d phantoms\n",
		rep.Recovery.Cycles, rep.Recovery.Recovered, rep.Recovery.RevLosses, rep.Recovery.Phantoms)
	if sv := rep.Server; sv != nil {
		for _, row := range []struct {
			name string
			d    *fleet.ServerDist
		}{{"orient", sv.Orient}, {"churn", sv.Churn}, {"repair", sv.Repair}, {"wal-sync", sv.WALSync}} {
			if row.d == nil {
				continue
			}
			fmt.Fprintf(os.Stderr, "  server  %-8s %8d obs  p50 %8.3fms  p99 %8.3fms\n",
				row.name, row.d.Count, row.d.P50ms, row.d.P99ms)
		}
		for _, msg := range sv.Disagreements {
			fmt.Fprintln(os.Stderr, "  DISAGREEMENT:", msg)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fleetsim:", err)
	os.Exit(1)
}
