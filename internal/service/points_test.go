package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
)

// wireXY is a point as clients put it on the wire.
type wireXY struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// benchShapedBody is an /orient body as load generators send it: the
// points first, then the budget, asking for the binary artifact.
func benchShapedBody(n int, seed int64) []byte {
	pts := uniformPts(n, seed)
	xy := make([]wireXY, len(pts))
	for i, p := range pts {
		xy[i] = wireXY{p.X, p.Y}
	}
	data, err := json.Marshal(struct {
		Points []wireXY `json:"points"`
		K      int      `json:"k"`
		Phi    float64  `json:"phi"`
		Algo   string   `json:"algo"`
		Format string   `json:"format"`
	}{xy, 2, math.Pi, "tworay", "binary"})
	if err != nil {
		panic(err)
	}
	return data
}

// decodeSeeds are the shapes the scanner must take or refuse exactly as
// encoding/json reads them.
var decodeSeeds = []string{
	`{"points":[{"x":1,"y":2},{"y":-0.5e3,"x":3.25}],"k":2,"phi":0}`,
	` { "points" : [ { "x" : 1 , "y" : 2 } ] , "k" : 2 } `,
	`{"k":2,"algo":"cover","points":[{"x":1,"y":2}],"objective":{"conn":"strong","minimize":"spread"}}`,
	`{"points":[{"X":1,"y":2}],"k":2}`,
	`{"Points":[{"x":9,"y":9}],"points":[{"x":1,"y":2}],"k":2}`,
	`{"points":[{"x":1,"y":2}],"pointſ":[{"x":9,"y":9}],"k":2}`,
	`{"points":[{"x":1,"y":2}],"poınts":[{"x":9,"y":9}],"k":2}`,
	`{"points":[{"x":1,"y":2}],"points":[{"x":3,"y":4}],"k":2}`,
	`{"points":[{"x":1e400,"y":2}],"k":2}`,
	`{"points":[{"x":01,"y":2}],"k":2}`,
	`{"points":[{"x":-0,"y":0}],"k":2}`,
	`{"points":[{"x":+1,"y":2}],"k":2}`,
	`{"points":[{"x":.5,"y":2}],"k":2}`,
	`{"points":[{"x":1.,"y":2}],"k":2}`,
	`{"points":[{"x":0x1p3,"y":2}],"k":2}`,
	`{"points":[{"x":Inf,"y":2}],"k":2}`,
	`{"points":[{"x":1e,"y":2}],"k":2}`,
	`{"points":[{"x":-,"y":2}],"k":2}`,
	`{"points":[{"x":-01,"y":2}],"k":2}`,
	`{"points":[{"x":1E+2,"y":-0.0e-0}],"k":2}`,
	`{"poin\u0074s":[{"x":1,"y":2}],"k":2}`,
	`{"points":[{"x":1,"y":2}],"\u006b":2}`,
	`{"points":[{"x":1,"y":2,"z":3}],"k":2}`,
	`{"points":[{"x":1,"x":2,"y":3}],"k":2}`,
	`{"points":[{"x":1}],"k":2}`,
	`{"points":[{"x":1,"y":2}],"k":2} trailing`,
	`{"points":[{"x":1,"y":2}],"k":2}{"k":3}`,
	`{"points":null,"k":2}`,
	`{"points":[{"x":1,"y":2}],"gen":{"workload":"uniform","n":10,"seed":1},"k":2}`,
	`{"points":[],"k":2}`,
	`{"points":[{"x":1,"y":2},],"k":2}`,
	`{"points":[{"x":1,"y":2}],"k":2,}`,
	`{"a":"}\"points\":[","points":[{"x":1,"y":2}],"k":2}`,
	`{"k":2 "points":[{"x":1,"y":2}]}`,
	`{"k":[}],"points":[{"x":1,"y":2}]}`,
	`{"id":"a","points":[{"x":1,"y":2}],"k":2,"phi":1.5}`,
	`[{"x":1,"y":2}]`,
	`{"points":[{"x":1,"y":2}]`,
	``,
}

// FuzzDecodeOrientRequest holds the scanned decode to encoding/json: for
// both request bodies that carry points, the two must agree on
// accept/reject, on the point count, on every coordinate's float64 bits,
// and on the JSON encoding of every other field.
func FuzzDecodeOrientRequest(f *testing.F) {
	f.Add(benchShapedBody(50, 1))
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fast, std orientRequest
		checkDecodeAgrees(t, data, &fast, &std, &fast.Points, &std.Points)
		var fastC, stdC instanceCreateRequest
		checkDecodeAgrees(t, data, &fastC, &stdC, &fastC.Points, &stdC.Points)
	})
}

func checkDecodeAgrees(t *testing.T, data []byte, fast, std any, fastPts, stdPts *[]geom.Point) {
	t.Helper()
	errFast := decodeRequest(data, fast)
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	errStd := dec.Decode(std)
	if (errFast == nil) != (errStd == nil) {
		t.Fatalf("%T on %q: scanned decode err=%v, encoding/json err=%v", fast, data, errFast, errStd)
	}
	if errStd != nil {
		return
	}
	if len(*fastPts) != len(*stdPts) {
		t.Fatalf("%T on %q: %d points scanned, %d from encoding/json", fast, data, len(*fastPts), len(*stdPts))
	}
	for i, p := range *stdPts {
		q := (*fastPts)[i]
		if math.Float64bits(p.X) != math.Float64bits(q.X) || math.Float64bits(p.Y) != math.Float64bits(q.Y) {
			t.Fatalf("%T on %q: point %d scanned as %v, encoding/json %v", fast, data, i, q, p)
		}
	}
	*fastPts, *stdPts = nil, nil
	a, errA := json.Marshal(fast)
	b, errB := json.Marshal(std)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("%T on %q: other fields differ: scanned %s (%v), encoding/json %s (%v)", fast, data, a, errA, b, errB)
	}
}

// TestSplitPointsShapes pins which bodies the scanner takes: agreement
// alone would also hold for a scanner that always fell back.
func TestSplitPointsShapes(t *testing.T) {
	cases := []struct {
		body string
		n    int // points scanned; -1 for a fallback
	}{
		{string(benchShapedBody(50, 1)), 50},
		{decodeSeeds[0], 2},
		{decodeSeeds[1], 1},
		{decodeSeeds[2], 1},
		{`{"points":[{"x":-0,"y":0}],"k":2}`, 1},
		{`{"points":[],"k":2}`, 0},
		{`{"points":[{"x":1,"y":2}],"poınts":[{"x":9,"y":9}],"k":2}`, 1}, // ı does not fold to i
		{`{"points":[{"x":1,"y":2}],"gen":{"workload":"uniform","n":10,"seed":1},"k":2}`, 1},
		{`{"points":[{"X":1,"y":2}],"k":2}`, -1},
		{`{"Points":[{"x":9,"y":9}],"points":[{"x":1,"y":2}],"k":2}`, -1},
		{`{"points":[{"x":1,"y":2}],"pointſ":[{"x":9,"y":9}],"k":2}`, -1},
		{`{"points":[{"x":1,"y":2}],"points":[{"x":3,"y":4}],"k":2}`, -1},
		{`{"points":[{"x":1e400,"y":2}],"k":2}`, -1},
		{`{"points":[{"x":01,"y":2}],"k":2}`, -1},
		{`{"points":[{"x":+1,"y":2}],"k":2}`, -1},
		{`{"points":[{"x":.5,"y":2}],"k":2}`, -1},
		{`{"points":[{"x":1.,"y":2}],"k":2}`, -1},
		{`{"points":[{"x":0x1p3,"y":2}],"k":2}`, -1},
		{`{"points":[{"x":1E+2,"y":-0.0e-0}],"k":2}`, 1},
		{`{"points":[{"x":1,"y":2,"z":3}],"k":2}`, -1},
		{`{"points":[{"x":1,"x":2,"y":3}],"k":2}`, -1},
		{`{"points":null,"k":2}`, -1},
		{`{"poin\u0074s":[{"x":1,"y":2}],"k":2}`, -1},
		{`{"points":[{"x":1,"y":2}],"\u006b":2}`, -1},
	}
	for _, c := range cases {
		pts, rest, ok := splitPoints([]byte(c.body))
		switch {
		case c.n < 0 && ok:
			t.Errorf("%.60q: scanned %d points, want a fallback", c.body, len(pts))
		case c.n >= 0 && !ok:
			t.Errorf("%.60q: fell back, want %d points scanned", c.body, c.n)
		case ok && len(pts) != c.n:
			t.Errorf("%.60q: scanned %d points, want %d", c.body, len(pts), c.n)
		case ok:
			var r orientRequest
			if err := json.Unmarshal(rest, &r); err != nil || len(r.Points) != 0 {
				t.Errorf("%.60q: residue %q keeps points (%v)", c.body, rest, err)
			}
		}
	}
}

// BenchmarkDecodeOrientRequest decodes a load-generator /orient body:
// json is the whole-body encoding/json decode every fallback takes,
// scan is the decode requests take.
func BenchmarkDecodeOrientRequest(b *testing.B) {
	arms := []struct {
		name   string
		decode func([]byte, any) error
	}{{"json", decodeStrict}, {"scan", decodeRequest}}
	for _, arm := range arms {
		for _, n := range []int{1000, 10000} {
			body := benchShapedBody(n, 1)
			b.Run(fmt.Sprintf("%s/n=%d", arm.name, n), func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for b.Loop() {
					var req orientRequest
					if err := arm.decode(body, &req); err != nil || len(req.Points) != n {
						b.Fatalf("decode: %v (%d points)", err, len(req.Points))
					}
				}
			})
		}
	}
}
