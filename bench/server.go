package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// serverConfig is what a workload asks of antennad beyond its production
// defaults.
type serverConfig struct {
	// store enables the durable artifact tier (-store).
	store bool
	// wal enables the instance write-ahead log (-wal-dir) at the default
	// interval sync policy.
	wal bool
	// cacheEntries caps the in-memory artifact tier (-cache); 0 keeps
	// the default.
	cacheEntries int
}

// walSyncInterval is antennad's default -wal-sync-interval; the churn
// audit waits three of them before it crashes the server, so every
// acknowledged revision is on disk.
const walSyncInterval = 100 * time.Millisecond

// server is the antennad under test as the benchmark drives it: the
// built binary in a real run, an in-process server in the tests.
type server interface {
	// start brings the server up and returns once /healthz answers.
	// fresh wipes the data directories first; otherwise the server
	// restarts over whatever the previous process left behind.
	start(ctx context.Context, fresh bool) error
	// crash stops the server abruptly: no drain, no final WAL sync.
	crash() error
	// close stops the server if it runs and removes its data.
	close()
	// url is the serving base URL, valid after start.
	url() string
	// debugURL is the debug listener's base URL, or "" when untraced.
	debugURL() string
	// peakRSSMB is the peak resident set of the last crashed process.
	peakRSSMB() float64
}

// procServer runs the antennad binary on loopback.
type procServer struct {
	bin    string
	dir    string
	cfg    serverConfig
	traced bool
	log    *os.File

	addr, dbgAddr string
	cmd           *exec.Cmd
	exited        chan struct{}
	rssMB         float64
}

func newProcServer(bin, dir string, cfg serverConfig, traced bool) (*procServer, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &procServer{bin: bin, dir: dir, cfg: cfg, traced: traced, addr: addr}
	if traced {
		if s.dbgAddr, err = freeAddr(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before antennad binds it; nothing else on the host is
// expected to race for it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick port: %w", err)
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func (s *procServer) start(ctx context.Context, fresh bool) error {
	if s.cmd != nil {
		return errors.New("antennad already running")
	}
	if fresh {
		if err := os.RemoveAll(s.dir); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	if s.log == nil {
		f, err := os.Create(filepath.Join(filepath.Dir(s.dir), "antennad.log"))
		if err != nil {
			return err
		}
		s.log = f
	}
	args := []string{"-addr", s.addr}
	if s.cfg.store {
		args = append(args, "-store", filepath.Join(s.dir, "store"))
	}
	if s.cfg.wal {
		args = append(args, "-wal-dir", filepath.Join(s.dir, "wal"))
	}
	if s.cfg.cacheEntries > 0 {
		args = append(args, "-cache", strconv.Itoa(s.cfg.cacheEntries))
	}
	if s.traced {
		args = append(args, "-debug-addr", s.dbgAddr)
	}
	cmd := exec.Command(s.bin, args...)
	cmd.Stdout, cmd.Stderr = s.log, s.log
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start antennad: %w", err)
	}
	s.cmd, s.exited = cmd, make(chan struct{})
	go func() {
		_ = cmd.Wait()
		close(s.exited)
	}()
	if err := waitHealthy(ctx, s.url(), s.exited); err != nil {
		_ = s.crash()
		return err
	}
	return nil
}

// waitHealthy polls /healthz every 100µs until it answers 200, the
// process exits, or two minutes pass (WAL recovery re-solves every
// instance before the listener opens). A bare restart takes ~4ms, so a
// coarser poll would dominate the restart time.
func waitHealthy(ctx context.Context, base string, exited <-chan struct{}) error {
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 2 * time.Second}
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-exited:
			return errors.New("antennad exited before it became healthy")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Microsecond):
		}
	}
	return errors.New("antennad did not become healthy within 2m")
}

func (s *procServer) crash() error {
	if s.cmd == nil {
		return nil
	}
	err := s.cmd.Process.Kill()
	<-s.exited
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	s.cmd = nil
	if err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("kill antennad: %w", err)
	}
	return nil
}

func (s *procServer) close() {
	_ = s.crash()
	if s.log != nil {
		s.log.Close()
	}
	_ = os.RemoveAll(s.dir)
}

func (s *procServer) url() string { return "http://" + s.addr }

func (s *procServer) debugURL() string {
	if !s.traced {
		return ""
	}
	return "http://" + s.dbgAddr
}

func (s *procServer) peakRSSMB() float64 { return s.rssMB }
