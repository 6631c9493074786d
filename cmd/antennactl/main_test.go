package main

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/pointset"
	"repro/internal/service"
)

func TestParsePhi(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"0", 0, true},
		{"3.1415", 3.1415, true},
		{"pi", math.Pi, true},
		{"1pi", math.Pi, true},
		{"0.8pi", 0.8 * math.Pi, true},
		{"1.6pi", 1.6 * math.Pi, true},
		{"xpi", 0, false},
		{"abc", 0, false},
	}
	for _, c := range cases {
		got, err := parsePhi(c.in)
		if c.ok && (err != nil || math.Abs(got-c.want) > 1e-12) {
			t.Errorf("parsePhi(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("parsePhi(%q) accepted", c.in)
		}
	}
}

func TestSourceOf(t *testing.T) {
	if got := sourceOf(2, math.Pi); got != "Theorem 3.1" {
		t.Errorf("sourceOf(2, π) = %q", got)
	}
	if got := sourceOf(5, 0); got != "folklore (k=5)" {
		t.Errorf("sourceOf(5, 0) = %q", got)
	}
}

// TestInspectRoundTrip: an artifact written in either codec must decode
// through `antennactl inspect` and report the same header fields.
func TestInspectRoundTrip(t *testing.T) {
	pts := pointset.Workload("uniform", rand.New(rand.NewSource(7)), 40)
	sol, _, err := service.NewEngine(service.Options{}).Solve(context.Background(),
		service.Request{Pts: pts, K: 2, Phi: 0, Algo: "tworay"})
	if err != nil {
		t.Fatal(err)
	}
	jsonData, err := sol.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "sol.json")
	binPath := filepath.Join(dir, "sol.bin")
	if err := os.WriteFile(jsonPath, jsonData, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(binPath, sol.EncodeBinary(), 0o644); err != nil {
		t.Fatal(err)
	}
	var fromJSON, fromBin bytes.Buffer
	if err := inspectFile(&fromJSON, jsonPath); err != nil {
		t.Fatal(err)
	}
	if err := inspectFile(&fromBin, binPath); err != nil {
		t.Fatal(err)
	}
	// Everything after the artifact line (path + size differ) must match.
	tail := func(b *bytes.Buffer) string {
		_, rest, _ := strings.Cut(b.String(), "\n")
		return rest
	}
	if tail(&fromJSON) != tail(&fromBin) {
		t.Fatalf("inspect output differs between codecs:\n--- json ---\n%s--- bin ---\n%s", fromJSON.String(), fromBin.String())
	}
	for _, want := range []string{sol.PointsDigest, "algorithm   tworay", "verified    true"} {
		if !strings.Contains(fromJSON.String(), want) {
			t.Fatalf("inspect output missing %q:\n%s", want, fromJSON.String())
		}
	}
	// Damaged artifacts must error, not print garbage (the raw codec
	// catches structural damage; full bit-flip detection is the store
	// envelope's job).
	bad := sol.EncodeBinary()
	bad = bad[:len(bad)-3]
	badPath := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := inspectFile(&bytes.Buffer{}, badPath); err == nil {
		t.Fatal("inspect accepted a corrupt artifact")
	}
}

// TestAlgosSortedStable: `antennactl algos` must list the portfolio in
// sorted name order and print byte-identical output on every run — the
// registry must never leak map iteration order.
func TestAlgosSortedStable(t *testing.T) {
	var first bytes.Buffer
	if err := writeAlgos(&first); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(first.String(), "\n"), "\n")
	if len(lines) < 7 { // header + ≥ 6 orienters
		t.Fatalf("only %d lines:\n%s", len(lines), first.String())
	}
	var names []string
	for _, l := range lines[1:] {
		names = append(names, strings.Fields(l)[0])
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("algos not sorted: %v", names)
	}
	for i := 0; i < 20; i++ {
		var again bytes.Buffer
		if err := writeAlgos(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("algos output unstable between runs:\n--- first ---\n%s--- again ---\n%s", first.String(), again.String())
		}
	}
}

// TestSimulateFailSolvesOnce: simulate -sim fail orients its input once.
// The live instance's revision 1 is a memory hit on the artifact the
// header was read from, and at this budget the kills are repaired
// incrementally, so the engine computes exactly one artifact.
func TestSimulateFailSolvesOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pts.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pointset.WriteCSV(f, pointset.Workload("uniform", rand.New(rand.NewSource(3)), 300)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	eng := service.Shared()
	solves := eng.Metrics().Solves.Load()
	hits, _ := eng.Cache().Stats()
	if err := cmdSimulate([]string{"-in", path, "-sim", "fail", "-k", "1", "-phi", "0", "-fails", "5"}); err != nil {
		t.Fatal(err)
	}
	if n := eng.Metrics().Solves.Load() - solves; n != 1 {
		t.Fatalf("%d solves, want 1", n)
	}
	if h, _ := eng.Cache().Stats(); h == hits {
		t.Fatal("the live instance's revision 1 was not a memory hit on the header's artifact")
	}
}
