package instance

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/solution"
)

// The golden tests pin the exact bytes of the WAL's log records, so a
// refactor of the codec cannot change a byte on disk without failing
// here. The snapshot file is pinned end to end in wal_test.go.

func goldenRecords() []walRecord {
	pts := []geom.Point{{X: 1, Y: 2}, {X: -3.5, Y: 0.25}, {X: 8, Y: 8}}
	return []walRecord{
		{
			rev: 7,
			ops: []Op{
				{Op: solution.OpAdd, X: 3.5, Y: -1.25},
				{Op: solution.OpRemove, Index: 1},
				{Op: solution.OpMove, Index: 2, X: 0.5, Y: 7},
			},
			digest:   solution.Digest(pts),
			verified: true,
		},
		{rev: 8, digest: solution.Digest(pts[:1])},
	}
}

// goldenLog is the log image of goldenRecords: two frames back to back.
func goldenLog() []byte {
	var log []byte
	for _, rec := range goldenRecords() {
		log = append(log, encodeWALRecord(rec)...)
	}
	return log
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestWALRecordGolden(t *testing.T) {
	frame := encodeWALRecord(goldenRecords()[0])
	if got, want := sha(frame), "705a571853d363e9949412b831f8a1cf6c248a86450c9b91b6b918629069c529"; got != want {
		t.Errorf("record frame: sha256 %s, want %s (%d bytes)", got, want, len(frame))
	}
	log := goldenLog()
	recs, validLen, torn := parseWALRecords(log)
	parsed := fmt.Sprintf("%d|%d|%v|%+v", len(recs), validLen, torn, recs)
	if got, want := sha([]byte(parsed)), "9eed80137ef5bc455537abca279d864d85db50bbedfd9faf26e4a9efe1ca8d89"; got != want {
		t.Errorf("two-record parse: sha256 %s, want %s (%s)", got, want, parsed)
	}
	if len(recs) != 2 || validLen != int64(len(log)) || torn {
		t.Errorf("parse = %d records, valid %d of %d, torn %v", len(recs), validLen, len(log), torn)
	}
	recs, validLen, torn = parseWALRecords(log[:len(log)-1])
	if len(recs) != 1 || validLen != int64(len(frame)) || !torn {
		t.Errorf("torn parse = %d records, valid %d, torn %v; want 1, %d, true", len(recs), validLen, torn, len(frame))
	}
}
