package instance

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/plan"
	"repro/internal/solution"
)

// The fuzz targets feed arbitrary bytes to the WAL decoders, seeded from
// the golden fixtures. A decoder may reject its input but never panic,
// and what it accepts must survive encode-then-decode unchanged. The
// check compares decoded values, not bytes: a bool byte of 2 decodes as
// true and re-encodes as 1. NaN != NaN under reflect.DeepEqual, so a
// value holding a NaN falls back to comparing re-encodings, which carry
// float bits exactly.

// goldenSnapshot sets every snapshot field, the objective included.
func goldenSnapshot() walSnapshot {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1.5, Y: 0.25}, {X: -2, Y: 3}, {X: 4, Y: -0.5}}
	return walSnapshot{
		id:  "golden",
		rev: 12,
		budget: Budget{K: 2, Phi: 1.5, Objective: plan.Objective{
			Conn: core.ConnSymmetric, Minimize: plan.MinSpread, StrongC: 1, Deadline: 250 * time.Millisecond,
		}},
		pts:            pts,
		artifactDigest: solution.Digest(pts),
		verified:       true,
	}
}

func FuzzWALRecord(f *testing.F) {
	f.Add(goldenLog())
	f.Add(encodeWALRecord(goldenRecords()[0]))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, validLen, torn := parseWALRecords(data)
		if validLen < 0 || validLen > int64(len(data)) || torn != (validLen < int64(len(data))) {
			t.Fatalf("valid prefix %d of %d bytes, torn %v", validLen, len(data), torn)
		}
		for _, rec := range recs {
			enc := encodeWALRecord(rec)
			again, _, torn := parseWALRecords(enc)
			if torn || len(again) != 1 {
				t.Fatalf("re-encoded record rejected: %d records, torn %v", len(again), torn)
			}
			if !reflect.DeepEqual(again[0], rec) && !bytes.Equal(encodeWALRecord(again[0]), enc) {
				t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", again[0], rec)
			}
		}
	})
}

func FuzzWALSnapshot(f *testing.F) {
	f.Add(encodeWALSnapshot(goldenSnapshot()))
	f.Add(encodeWALSnapshot(walSnapshot{id: "empty", rev: 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeWALSnapshot(data)
		if err != nil {
			return
		}
		enc := encodeWALSnapshot(s)
		again, err := decodeWALSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if !reflect.DeepEqual(again, s) && !bytes.Equal(encodeWALSnapshot(again), enc) {
			t.Fatalf("round trip changed the snapshot:\n got %+v\nwant %+v", again, s)
		}
	})
}
