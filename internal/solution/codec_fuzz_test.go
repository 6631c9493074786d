package solution

import (
	"bytes"
	"reflect"
	"testing"
)

// The fuzz targets feed arbitrary bytes to the decoders, seeded from the
// golden fixtures. A decoder may reject its input but never panic, and
// what it accepts must survive encode-then-decode unchanged. The check
// compares decoded values, not bytes: a bool byte of 2 decodes as true
// and re-encodes as 1. NaN != NaN under reflect.DeepEqual, so a value
// holding a NaN falls back to comparing re-encodings, which carry float
// bits exactly.

func FuzzDecodeBinary(f *testing.F) {
	_, next, _ := goldenDelta()
	for _, s := range []*Solution{goldenArtifact(), next, sampleSolution()} {
		f.Add(s.EncodeBinary())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeBinary(data)
		if err != nil {
			return
		}
		enc := s.EncodeBinary()
		if len(enc) != s.EncodedBinarySize() {
			t.Fatalf("EncodedBinarySize %d, encoding has %d bytes", s.EncodedBinarySize(), len(enc))
		}
		again, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("re-encoded artifact rejected: %v", err)
		}
		if !reflect.DeepEqual(again, s) && !bytes.Equal(again.EncodeBinary(), enc) {
			t.Fatalf("round trip changed the artifact:\n got %+v\nwant %+v", again, s)
		}
	})
}

func FuzzApplyDelta(f *testing.F) {
	base, next, ops := goldenDelta()
	for _, c := range []struct {
		next *Solution
		ops  []PointOp
	}{{next, ops}, {base, nil}} {
		delta, err := EncodeDelta(base, c.next, c.ops)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(delta)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ApplyDelta(base, data)
		if err != nil {
			return
		}
		info, err := DecodeDeltaInfo(data)
		if err != nil {
			t.Fatalf("applied delta has an unreadable header: %v", err)
		}
		delta, err := EncodeDelta(base, got, info.Ops)
		if err != nil {
			t.Fatalf("applied delta does not re-encode: %v", err)
		}
		again, err := ApplyDelta(base, delta)
		if err != nil {
			t.Fatalf("re-encoded delta rejected: %v", err)
		}
		if !reflect.DeepEqual(again, got) && !bytes.Equal(again.EncodeBinary(), got.EncodeBinary()) {
			t.Fatalf("round trip changed the revision:\n got %+v\nwant %+v", again, got)
		}
	})
}
