package antenna

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
)

func sampleAssignment() *Assignment {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0.5, Y: 1}}
	a := New(pts)
	a.AddRayTo(0, 1, 1.0)
	a.Add(1, geom.NewSector(math.Pi/2, math.Pi/3, 1.5))
	a.AddRayTo(2, 0, 1.2)
	a.AddRayTo(1, 2, 1.2)
	return a
}

func TestJSONRoundTrip(t *testing.T) {
	a := sampleAssignment()
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.N() != a.N() {
		t.Fatalf("N = %d", b.N())
	}
	for i := range a.Sectors {
		if len(a.Sectors[i]) != len(b.Sectors[i]) {
			t.Fatalf("sensor %d sector count mismatch", i)
		}
	}
	if !EqualDigraph(a, b) {
		t.Fatal("round trip changed the induced digraph")
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	// Invalid sector values are rejected by Validate.
	bad := `{"sensors":[{"x":0,"y":0,"sectors":[{"start":0,"spread":0,"radius":-5}]}]}`
	if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Fatal("negative radius accepted")
	}
}

func TestEqualDigraph(t *testing.T) {
	a := sampleAssignment()
	b := sampleAssignment()
	if !EqualDigraph(a, b) {
		t.Fatal("identical assignments differ")
	}
	b.AddRayTo(0, 2, 2)
	if EqualDigraph(a, b) {
		t.Fatal("extra edge not detected")
	}
	if EqualDigraph(a, New(nil)) {
		t.Fatal("size mismatch not detected")
	}
}

// EqualDigraph reports whether two assignments induce the same digraph —
// the round-trip invariant for serialization.
func EqualDigraph(a, b *Assignment) bool {
	if a.N() != b.N() {
		return false
	}
	ga := a.InducedDigraph()
	gb := b.InducedDigraph()
	if ga.NumEdges() != gb.NumEdges() {
		return false
	}
	for u := 0; u < ga.N; u++ {
		for _, v := range ga.Adj[u] {
			if !gb.HasEdge(u, v) {
				return false
			}
		}
	}
	return true
}
