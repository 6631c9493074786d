package instance

// wal.go is the crash-durability layer of the instance tier: a
// per-instance write-ahead log plus snapshot, living under one WAL root
// directory. Create writes a snapshot (pointset + budget + artifact
// digest) before the instance is published; every Apply appends one
// checksummed record — the ADLT mutation batch plus the digest of the
// points it produced — before the revision is published; Recover
// replays snapshot + log tail at startup, tolerating a torn final
// record by truncating at the last valid checksum, and re-solves each
// instance through the full engine path so the recovered artifact is
// re-verified. Layouts are specified in internal/solution/WIRE_FORMAT.md
// next to the artifact and delta formats, whose writer and reader they
// share.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/geom"
	"repro/internal/plan"
	"repro/internal/solution"
)

// SyncPolicy names when WAL appends reach stable storage.
type SyncPolicy string

// Fsync policies, in decreasing durability: SyncAlways fsyncs every
// append (an acknowledged revision is never lost), SyncInterval fsyncs
// on a background ticker (a crash loses at most the last interval),
// SyncOff leaves flushing to the OS (a crash loses the page cache, but
// recovery still truncates to a valid prefix).
const (
	SyncAlways   SyncPolicy = "always"
	SyncInterval SyncPolicy = "interval"
	SyncOff      SyncPolicy = "off"
)

// ParseSyncPolicy parses the -wal-sync flag vocabulary.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case SyncAlways, SyncInterval, SyncOff:
		return SyncPolicy(s), nil
	case "":
		return SyncInterval, nil
	}
	return "", fmt.Errorf("instance: unknown WAL sync policy %q (always|interval|off)", s)
}

// WALConfig configures the durability layer. A nil *WALConfig in
// Config.WAL disables it entirely (the seed's in-memory behavior).
type WALConfig struct {
	// Dir is the WAL root; each instance owns one subdirectory.
	Dir string
	// Policy is the fsync policy ("" selects SyncInterval).
	Policy SyncPolicy
	// Interval is the SyncInterval flush period (≤ 0 selects
	// DefaultWALInterval).
	Interval time.Duration
	// MaxLogBytes triggers snapshot compaction when an instance's log
	// grows past it (≤ 0 selects DefaultWALMaxLogBytes).
	MaxLogBytes int64
	// FS is the filesystem seam (nil selects the OS); tests inject
	// faults through it.
	FS faultfs.FS
}

// Defaults for WALConfig fields.
const (
	DefaultWALInterval    = 100 * time.Millisecond
	DefaultWALMaxLogBytes = 4 << 20
)

// Wire constants of the durability files (see WIRE_FORMAT.md).
var (
	walSnapshotMagic = [4]byte{'A', 'S', 'N', 'P'}
	walCRC           = crc32.MakeTable(crc32.Castagnoli)
)

const (
	walSnapshotVersion = 1
	walSnapshotName    = "snapshot"
	walLogName         = "wal"
	// walRecApply is the only record kind today: one Apply batch.
	walRecApply = 1
	// walRecordHeader = u32 payload length + u32 CRC32C.
	walRecordHeader = 8
)

// walManager owns the WAL root: per-instance handles, the interval
// flusher, and the codec plumbing. It is created by NewManager when
// Config.WAL is set and shares the Manager's Metrics.
type walManager struct {
	cfg     WALConfig
	fs      faultfs.FS
	metrics *Metrics

	mu   sync.Mutex
	open map[string]*instWAL

	stop chan struct{}
	done chan struct{}
}

// instWAL is one instance's open durability state. Appends are already
// serialized by the instance's applyMu; the mutex exists because the
// interval flusher and Close touch the handle concurrently.
type instWAL struct {
	dir string

	mu     sync.Mutex
	f      faultfs.File
	size   int64
	dirty  bool
	broken bool
}

func newWALManager(cfg WALConfig, metrics *Metrics) *walManager {
	if cfg.FS == nil {
		cfg.FS = faultfs.OS
	}
	if cfg.Policy == "" {
		cfg.Policy = SyncInterval
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultWALInterval
	}
	if cfg.MaxLogBytes <= 0 {
		cfg.MaxLogBytes = DefaultWALMaxLogBytes
	}
	wm := &walManager{cfg: cfg, fs: cfg.FS, metrics: metrics, open: make(map[string]*instWAL)}
	if cfg.Policy == SyncInterval {
		wm.stop = make(chan struct{})
		wm.done = make(chan struct{})
		go wm.syncLoop()
	}
	return wm
}

// syncLoop flushes dirty logs every interval under SyncInterval.
func (wm *walManager) syncLoop() {
	defer close(wm.done)
	t := time.NewTicker(wm.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-wm.stop:
			return
		case <-t.C:
			wm.syncAll()
		}
	}
}

// syncAll flushes every dirty open log once.
func (wm *walManager) syncAll() {
	wm.mu.Lock()
	handles := make([]*instWAL, 0, len(wm.open))
	for _, iw := range wm.open {
		handles = append(handles, iw)
	}
	wm.mu.Unlock()
	for _, iw := range handles {
		iw.mu.Lock()
		if iw.dirty && !iw.broken && iw.f != nil {
			t0 := time.Now()
			if err := iw.f.Sync(); err == nil {
				iw.dirty = false
				wm.metrics.WALSyncs.Add(1)
				wm.metrics.WALSyncSeconds.ObserveDuration(time.Since(t0))
			}
		}
		iw.mu.Unlock()
	}
}

// close stops the flusher and durably closes every open log.
func (wm *walManager) close() error {
	if wm.stop != nil {
		close(wm.stop)
		<-wm.done
	}
	wm.mu.Lock()
	handles := make([]*instWAL, 0, len(wm.open))
	for _, iw := range wm.open {
		handles = append(handles, iw)
	}
	wm.open = make(map[string]*instWAL)
	wm.mu.Unlock()
	var first error
	for _, iw := range handles {
		iw.mu.Lock()
		if iw.f != nil {
			if wm.cfg.Policy != SyncOff && !iw.broken {
				if err := iw.f.Sync(); err != nil && first == nil {
					first = err
				} else if err == nil {
					wm.metrics.WALSyncs.Add(1)
				}
			}
			if err := iw.f.Close(); err != nil && first == nil {
				first = err
			}
			iw.f = nil
		}
		iw.mu.Unlock()
	}
	return first
}

// dirFor maps an instance id to its subdirectory: the id sanitized to a
// filesystem-safe prefix plus an 8-hex-digit hash suffix, so distinct
// ids never collide even when sanitization overlaps.
func (wm *walManager) dirFor(id string) string {
	sum := sha256.Sum256([]byte(id))
	safe := make([]byte, 0, len(id))
	for i := 0; i < len(id) && len(safe) < 40; i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			safe = append(safe, c)
		default:
			safe = append(safe, '_')
		}
	}
	return filepath.Join(wm.cfg.Dir, fmt.Sprintf("%s-%s", safe, hex.EncodeToString(sum[:4])))
}

// create makes an instance durable before it is published: directory,
// snapshot at revision 1, and an empty log, all synced.
func (wm *walManager) create(id string, b Budget, pts []geom.Point, sol *solution.Solution) (*instWAL, error) {
	dir := wm.dirFor(id)
	if err := wm.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := wm.writeSnapshot(dir, id, 1, b, pts, sol); err != nil {
		return nil, err
	}
	// O_TRUNC discards any stale log left by a same-named instance whose
	// directory removal failed.
	f, err := wm.fs.OpenFile(filepath.Join(dir, walLogName), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if err := wm.fs.SyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	iw := &instWAL{dir: dir, f: f}
	wm.mu.Lock()
	wm.open[id] = iw
	wm.mu.Unlock()
	return iw, nil
}

// append durably logs one Apply record ahead of publication. A failed
// or torn append is rolled back by truncating to the pre-append offset
// so the tail stays valid; if even the rollback fails the log is marked
// broken and every later append fails fast (the instance keeps serving
// reads, but no further revision can be acknowledged).
func (wm *walManager) append(iw *instWAL, rec walRecord) error {
	data := encodeWALRecord(rec)
	iw.mu.Lock()
	defer iw.mu.Unlock()
	if iw.broken || iw.f == nil {
		return fmt.Errorf("instance: wal is broken or closed")
	}
	prev := iw.size
	if _, err := iw.f.Write(data); err != nil {
		if terr := iw.f.Truncate(prev); terr != nil {
			iw.broken = true
		}
		wm.metrics.WALAppendErrors.Add(1)
		return err
	}
	iw.size += int64(len(data))
	switch wm.cfg.Policy {
	case SyncAlways:
		t0 := time.Now()
		if err := iw.f.Sync(); err != nil {
			if terr := iw.f.Truncate(prev); terr != nil {
				iw.broken = true
			} else {
				iw.size = prev
			}
			wm.metrics.WALAppendErrors.Add(1)
			return err
		}
		wm.metrics.WALSyncs.Add(1)
		wm.metrics.WALSyncSeconds.ObserveDuration(time.Since(t0))
	case SyncInterval:
		iw.dirty = true
	}
	wm.metrics.WALAppends.Add(1)
	return nil
}

// maybeCompact snapshots and truncates the log once it outgrows the
// bound. Compaction is best-effort: a failed snapshot write keeps the
// (longer but valid) log; a failed truncate keeps records the snapshot
// already covers, which replay skips by revision.
func (wm *walManager) maybeCompact(iw *instWAL, id string, rev uint64, b Budget, pts []geom.Point, sol *solution.Solution) {
	iw.mu.Lock()
	over := iw.size > wm.cfg.MaxLogBytes
	iw.mu.Unlock()
	if !over {
		return
	}
	if err := wm.writeSnapshot(iw.dir, id, rev, b, pts, sol); err != nil {
		wm.metrics.WALAppendErrors.Add(1)
		return
	}
	iw.mu.Lock()
	if !iw.broken && iw.f != nil {
		if err := iw.f.Truncate(0); err == nil {
			iw.size = 0
			iw.dirty = false
		}
	}
	iw.mu.Unlock()
	wm.metrics.WALSnapshots.Add(1)
}

// remove closes and deletes an instance's durability state.
func (wm *walManager) remove(id string, iw *instWAL) {
	wm.mu.Lock()
	delete(wm.open, id)
	wm.mu.Unlock()
	iw.mu.Lock()
	if iw.f != nil {
		iw.f.Close()
		iw.f = nil
	}
	iw.mu.Unlock()
	_ = wm.fs.RemoveAll(iw.dir)
}

// writeSnapshot atomically replaces the snapshot file: temp write,
// fsync, rename, directory fsync. Snapshots are always fully durable
// regardless of the log's sync policy — a compaction that truncated the
// log against a non-durable snapshot would lose every revision.
func (wm *walManager) writeSnapshot(dir, id string, rev uint64, b Budget, pts []geom.Point, sol *solution.Solution) error {
	data := encodeWALSnapshot(walSnapshot{id: id, rev: rev, budget: b, pts: pts, artifactDigest: artifactDigest(sol), verified: sol.Verified})
	tmp, err := wm.fs.CreateTemp(dir, ".snap-*")
	if err != nil {
		return err
	}
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = wm.fs.Rename(tmp.Name(), filepath.Join(dir, walSnapshotName))
	}
	if err != nil {
		wm.fs.Remove(tmp.Name())
		return err
	}
	return wm.fs.SyncDir(dir)
}

// artifactDigest is the content address of an encoded artifact,
// recorded in snapshots as provenance for the recovered solve.
func artifactDigest(sol *solution.Solution) string {
	sum := sha256.Sum256(sol.EncodeBinary())
	return hex.EncodeToString(sum[:])
}

// --- codec -----------------------------------------------------------
//
// Both files are written with solution.Writer and read with
// solution.Reader, the codec of the artifact and the ADLT delta, and a
// batch uses the delta's op layout. A log record and the snapshot body
// share one frame: u32 payload length, u32 CRC32C, payload.

// walRecord is one logged Apply: the batch, the revision it produced,
// and the digest + verification verdict the publication acknowledged.
type walRecord struct {
	rev      uint64
	ops      []Op
	digest   string // solution.Digest of the post-batch pointset
	verified bool
}

// walSnapshot is a decoded snapshot file.
type walSnapshot struct {
	id             string
	rev            uint64
	budget         Budget
	pts            []geom.Point
	artifactDigest string
	verified       bool
}

// writeFrame appends payload as one frame: u32 length, u32 CRC32C,
// payload.
func writeFrame(w *solution.Writer, payload []byte) {
	w.U32(uint32(len(payload)))
	w.U32(crc32.Checksum(payload, walCRC))
	w.Raw(payload)
}

// unframe splits one frame off the front of data, returning its payload
// and the bytes after it; it fails on a truncated frame or a checksum
// mismatch.
func unframe(data []byte) (payload, rest []byte, err error) {
	r := solution.NewReader(data)
	n, sum := int(r.U32()), r.U32()
	payload = r.Take(n)
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if crc32.Checksum(payload, walCRC) != sum {
		return nil, nil, fmt.Errorf("instance: wal frame checksum mismatch")
	}
	return payload, data[walRecordHeader+n:], nil
}

// encodeWALRecord frames one record.
func encodeWALRecord(rec walRecord) []byte {
	var p, w solution.Writer
	p.U8(walRecApply)
	p.U64(rec.rev)
	p.Ops(rec.ops)
	p.Str(rec.digest)
	p.Bool(rec.verified)
	writeFrame(&w, p.Bytes())
	return w.Bytes()
}

// decodeWALRecordPayload parses one checksummed payload.
func decodeWALRecordPayload(payload []byte) (walRecord, error) {
	r := solution.NewReader(payload)
	if kind := r.U8(); r.Err() == nil && kind != walRecApply {
		return walRecord{}, fmt.Errorf("instance: unknown wal record kind %d", kind)
	}
	rec := walRecord{rev: r.U64(), ops: r.Ops(), digest: r.Str(), verified: r.Bool()}
	if err := r.Done(); err != nil {
		return walRecord{}, err
	}
	return rec, nil
}

// parseWALRecords scans a log image and returns every record on the
// valid prefix, the prefix length, and whether a torn tail (truncated
// or checksum-failed final bytes) was cut off.
func parseWALRecords(data []byte) (recs []walRecord, validLen int64, torn bool) {
	for rest := data; len(rest) > 0; {
		payload, next, err := unframe(rest)
		if err != nil {
			return recs, validLen, true
		}
		rec, err := decodeWALRecordPayload(payload)
		if err != nil {
			// The checksum held but the payload is malformed — a foreign
			// or future record. Cut here; everything after is untrusted.
			return recs, validLen, true
		}
		recs = append(recs, rec)
		validLen += int64(len(rest) - len(next))
		rest = next
	}
	return recs, validLen, false
}

// encodeWALSnapshot serializes a snapshot file: magic, version, and the
// payload as one frame.
func encodeWALSnapshot(s walSnapshot) []byte {
	var p, w solution.Writer
	p.Str(s.id)
	p.U64(s.rev)
	p.U16(uint16(s.budget.K))
	p.F64(s.budget.Phi)
	p.Str(s.budget.Algo)
	p.U8(uint8(s.budget.Objective.Conn))
	p.U8(uint8(s.budget.Objective.Minimize))
	p.U16(uint16(s.budget.Objective.StrongC))
	p.U64(uint64(s.budget.Objective.Deadline))
	p.U32(uint32(len(s.pts)))
	for _, pt := range s.pts {
		p.F64(pt.X)
		p.F64(pt.Y)
	}
	p.Str(s.artifactDigest)
	p.Bool(s.verified)
	w.Raw(walSnapshotMagic[:])
	w.U8(walSnapshotVersion)
	writeFrame(&w, p.Bytes())
	return w.Bytes()
}

// decodeWALSnapshot validates the envelope and parses the payload.
func decodeWALSnapshot(data []byte) (walSnapshot, error) {
	var zero walSnapshot
	if len(data) < 5 {
		return zero, fmt.Errorf("instance: snapshot too short (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != walSnapshotMagic {
		return zero, fmt.Errorf("instance: bad snapshot magic %q", data[:4])
	}
	if data[4] != walSnapshotVersion {
		return zero, fmt.Errorf("instance: unsupported snapshot version %d (have %d)", data[4], walSnapshotVersion)
	}
	payload, rest, err := unframe(data[5:])
	if err != nil {
		return zero, fmt.Errorf("instance: snapshot: %w", err)
	}
	if len(rest) != 0 {
		return zero, fmt.Errorf("instance: %d trailing bytes after the snapshot frame", len(rest))
	}
	r := solution.NewReader(payload)
	s := walSnapshot{id: r.Str(), rev: r.U64()}
	s.budget.K = int(r.U16())
	s.budget.Phi = r.F64()
	s.budget.Algo = r.Str()
	s.budget.Objective = plan.Objective{
		Conn:     core.Connectivity(r.U8()),
		Minimize: plan.Minimize(r.U8()),
		StrongC:  int(r.U16()),
		Deadline: time.Duration(r.U64()),
	}
	if np := r.Count(int(r.U32()), 16); np > 0 { // f64 x, f64 y
		s.pts = make([]geom.Point, np)
		for i := range s.pts {
			s.pts[i] = geom.Point{X: r.F64(), Y: r.F64()}
		}
	}
	s.artifactDigest = r.Str()
	s.verified = r.Bool()
	if err := r.Done(); err != nil {
		return zero, fmt.Errorf("instance: snapshot: %w", err)
	}
	return s, nil
}
