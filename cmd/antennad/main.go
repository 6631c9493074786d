// Command antennad is the long-running orientation service: the same
// plan→solution engine the CLI tools use, behind an HTTP/JSON API.
// Every cache miss is solved on its own goroutine, identical requests
// share one solve (single-flight), and artifacts are served from two
// content-addressed tiers — a byte-charged in-memory LRU and an
// optional durable disk store (-store) that survives restarts — so
// repeated requests return byte-identical solutions without
// re-orienting, even across a redeploy. The server sheds load above
// -max-inflight with 429 + Retry-After (the bound on /orient solves
// with a caller waiting) and bounds each request by -deadline (503
// when exceeded). A solve whose callers all hit their deadline keeps
// running, up to GOMAXPROCS of them, so a retry joins it instead of
// starting another; see docs/OPERATIONS.md for the full operational
// story.
//
// The server also hosts the live-instance tier (internal/instance):
// named long-lived networks mutated through Add/Remove/Move batches,
// each batch producing a verified revision — by localized incremental
// repair when the budget's construction has a repair class (emst, tour
// or bats) and the dirty region is small, by a full engine solve
// otherwise — with per-revision ADLT deltas and optimistic concurrency
// via If-Match.
//
// Usage:
//
//	antennad [-addr :8080] [-cache 512] [-cache-max-bytes 134217728]
//	         [-store DIR] [-store-max-bytes 268435456]
//	         [-deadline 0] [-max-inflight 0] [-race 0]
//	         [-repair-threshold 0.25] [-instance-history 32]
//	         [-verify-audit-every 64]
//	         [-wal-dir DIR] [-wal-sync interval] [-wal-sync-interval 100ms]
//	         [-wal-max-bytes 4194304] [-drain-timeout 15s]
//	         [-debug-addr ADDR] [-log-level info]
//
// Every request is traced: responses carry X-Trace-Id (honoring an
// inbound X-Trace-Id) and a Server-Timing header breaking the request
// into phases; recent and slow traces are browsable at /debug/traces.
// -debug-addr serves pprof and a runtime snapshot on a separate
// listener that is deliberately absent from the serving mux — bind it
// to localhost only. Logs are structured (log/slog text format) on
// stderr; -log-level selects debug|info|warn|error.
//
// With -wal-dir set, every instance mutation is written to a
// checksummed per-instance write-ahead log before it is acknowledged,
// and periodic snapshots bound replay time; on startup the server
// replays snapshot + log tail and resumes each instance at its exact
// pre-crash revision (torn final records are truncated, recovered
// artifacts re-verified). On SIGTERM the server drains gracefully:
// new work is refused with 503 + Retry-After, in-flight requests get
// -drain-timeout to finish (then their contexts are cancelled), and
// the WAL is synced before exit. See docs/OPERATIONS.md ("Durability
// & recovery").
//
// Endpoints:
//
//	POST /orient  {"points":[{"x":..,"y":..},...] | "gen":{"workload":"uniform","n":1000,"seed":1},
//	               "k":2, "phi":3.14159, "algo":"tworay" | "objective":{"conn":"symmetric","minimize":"stretch"},
//	               "format":"json"|"binary"}
//	POST /plan    {"k":2, "phi":0, "objective":{...}}
//	GET  /algos   registered portfolio with guarantees
//	GET  /healthz liveness
//	GET  /metrics Prometheus text format
//	POST   /instances       create a live instance {"id"?, points|gen, k, phi, algo|objective}
//	GET    /instances       list live instances
//	GET    /instances/{id}  current artifact; ?rev=N history, ?delta=1 ADLT delta
//	PATCH  /instances/{id}  {"ops":[{"op":"add|remove|move",...}]} (If-Match: "rev" conditional)
//	DELETE /instances/{id}  drop the instance
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/instance"
	"repro/internal/service"
	"repro/internal/solution"
)

// parseLogLevel maps the -log-level vocabulary onto slog levels.
func parseLogLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (debug|info|warn|error)", s)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cache := flag.Int("cache", 0, "artifact cache capacity (entries); 0 = default")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0, "in-memory cache byte budget; 0 = default (128 MiB)")
	storeDir := flag.String("store", "", "directory for the durable artifact store; empty disables the disk tier")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "disk store byte cap; 0 = default (256 MiB)")
	deadline := flag.Duration("deadline", 0, "per-request deadline, counted from arrival (503 when exceeded); 0 disables")
	maxInflight := flag.Int("max-inflight", 0, "max concurrent /orient requests before shedding 429; 0 = unbounded")
	race := flag.Duration("race", 0, "default racing deadline for planner-selected requests; 0 disables racing")
	repairThreshold := flag.Float64("repair-threshold", 0, "live-instance dirty fraction above which incremental repair falls back to a full solve; 0 = default (0.25), negative disables repair")
	instanceHistory := flag.Int("instance-history", 0, "revisions retained per live instance; 0 = default (32)")
	verifyAuditEvery := flag.Int("verify-audit-every", 0, "full re-verification audit every Nth repaired revision; 0 = default (64), negative disables the audit")
	walDir := flag.String("wal-dir", "", "directory for per-instance write-ahead logs; empty disables crash durability")
	walSync := flag.String("wal-sync", "interval", "WAL fsync policy: always | interval | off")
	walSyncInterval := flag.Duration("wal-sync-interval", 0, "flush cadence for -wal-sync=interval; 0 = default (100ms)")
	walMaxBytes := flag.Int64("wal-max-bytes", 0, "per-instance log size that triggers snapshot compaction; 0 = default (4 MiB)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "how long in-flight requests get to finish on SIGTERM before their contexts are cancelled")
	debugAddr := flag.String("debug-addr", "", "separate listener for pprof, /debug/runtime, and /debug/traces; empty disables (bind to localhost only)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
	flag.Parse()

	lvl, err := parseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "antennad:", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	slog.SetDefault(logger)

	var store *solution.Store
	if *storeDir != "" {
		var err error
		store, err = solution.OpenStore(*storeDir, *storeMaxBytes)
		if err != nil {
			logger.Error("artifact store open failed", "err", err)
			os.Exit(1)
		}
		logger.Info("artifact store open", "dir", store.Root(), "resident", store.Len())
	}
	var walCfg *instance.WALConfig
	if *walDir != "" {
		policy, err := instance.ParseSyncPolicy(*walSync)
		if err != nil {
			logger.Error("bad -wal-sync", "err", err)
			os.Exit(2)
		}
		walCfg = &instance.WALConfig{
			Dir:         *walDir,
			Policy:      policy,
			Interval:    *walSyncInterval,
			MaxLogBytes: *walMaxBytes,
		}
	}
	eng := service.NewEngine(service.Options{
		CacheSize:        *cache,
		CacheMaxBytes:    *cacheMaxBytes,
		Store:            store,
		Deadline:         *deadline,
		MaxInflight:      *maxInflight,
		DefaultRace:      *race,
		RepairThreshold:  *repairThreshold,
		InstanceHistory:  *instanceHistory,
		VerifyAuditEvery: *verifyAuditEvery,
		InstanceWAL:      walCfg,
	})
	api := service.NewServer(eng)
	api.SetLogger(logger)
	if walCfg != nil {
		n, err := api.Instances().Recover(context.Background())
		if err != nil {
			// Recover is continue-on-error per instance: n instances are
			// live, err aggregates the directories it had to abandon.
			logger.Warn("wal recovery", "err", err)
		}
		// The message text carries the count: the crash-restart smoke in CI
		// greps for "N instances recovered" on stderr.
		logger.Info(fmt.Sprintf("%d instances recovered", n), "wal", *walDir, "sync", *walSync)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	if *debugAddr != "" {
		// pprof and runtime snapshots live on their own listener, never on
		// the serving mux; operators bind this to localhost.
		dbg := &http.Server{Addr: *debugAddr, Handler: api.DebugHandler(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		logger.Info("debug listener up", "addr", *debugAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr)

	select {
	case <-ctx.Done():
		// Graceful drain: refuse new work (503 + Retry-After) while
		// in-flight requests finish under -drain-timeout; past the
		// deadline their contexts are cancelled so Shutdown can return.
		api.BeginDrain()
		logger.Info("draining", "timeout", *drainTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Warn("drain deadline expired, aborting in-flight requests", "err", err)
			api.AbortInflight()
			abortCtx, abortCancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer abortCancel()
			_ = srv.Shutdown(abortCtx)
		}
		// Final WAL sync: every acknowledged revision is on disk before
		// the process exits.
		if err := api.Instances().Close(); err != nil {
			logger.Error("wal close failed", "err", err)
			os.Exit(1)
		}
		logger.Info("drained, bye")
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", "err", err)
			os.Exit(1)
		}
	}
}
