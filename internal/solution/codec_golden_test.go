package solution

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// The golden tests pin the exact bytes of every binary format this
// package writes — the artifact, the ADLT delta and the store file — so
// a refactor of the codec cannot change a byte on disk or on the wire
// without failing here. Each fixture sets every field the format
// carries.

// goldenArtifact is an artifact with every field set, including the
// planner metadata, the verification record and a sensor without
// antennae.
func goldenArtifact() *Solution {
	s := deltaTestSolution(24, 7)
	s.Objective = "conn=strong,min=stretch"
	s.Planned = true
	s.Edges = 51
	s.Verified = false
	s.Sectors[5] = nil
	s.VerifyErrors = []string{"sensor 3: radius 1.9 exceeds 1.5·l_max", ""}
	s.Violations = []string{"angular sum 3.3 > phi"}
	return s
}

// goldenDelta returns a base artifact, the batch cutting its successor
// (an add, a remove and a move), and the successor: inherited sensors
// keep their sectors except one re-aimed neighbor, fresh ones get new
// sectors, and the scalar fields change.
func goldenDelta() (base, next *Solution, ops []PointOp) {
	base = goldenArtifact()
	ops = []PointOp{
		{Op: OpAdd, X: 3.5, Y: -1.25},
		{Op: OpRemove, Index: 9},
		{Op: OpMove, Index: 2, X: 0.5, Y: 7},
	}
	old2new, nNew, fresh, err := PlanOps(base.N, ops)
	if err != nil {
		panic(err)
	}
	next = goldenArtifact()
	next.PointsDigest = "fedcba9876543210fedcba9876543210fedcba9876543210fedcba9876543210"
	next.N = nNew
	next.LMax, next.RadiusUsed, next.Edges = 1.5, 1.75, 47
	next.Verified, next.VerifyErrors = true, nil
	next.Sectors = make([][]Sector, nNew)
	for o, n := range old2new {
		if n >= 0 {
			next.Sectors[n] = base.Sectors[o]
		}
	}
	for _, f := range fresh {
		next.Sectors[f] = []Sector{{Start: 0.5, Spread: 0.25, Radius: 2}}
	}
	next.Sectors[11] = []Sector{{Start: 0.1, Spread: 0.2, Radius: 0.3}, {Start: 4, Spread: 0, Radius: 1}}
	return base, next, ops
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestCodecGolden(t *testing.T) {
	base, next, ops := goldenDelta()
	delta, err := EncodeDelta(base, next, ops)
	if err != nil {
		t.Fatal(err)
	}
	applied, err := ApplyDelta(base, delta)
	if err != nil {
		t.Fatal(err)
	}
	info, err := DecodeDeltaInfo(delta)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"artifact", goldenArtifact().EncodeBinary(), "145b35bea8d97cbb7afdfcd246ede7bd7406202052b93d204fec3a1878298ffe"},
		{"delta", delta, "559abc79b1afef290e14cbab5f73aee9bf0123f9b8dadea374cfffd78e386dc0"},
		{"applied delta", applied.EncodeBinary(), "099452e54d860e355cbda320793ea7ad10ba7ce1fb2994e68aa13a1a0f4ff46a"},
		{"delta info", []byte(fmt.Sprintf("%s|%s|%+v|%d", info.BaseDigest, info.NewDigest, info.Ops, info.Changed)), "56dd94109a626f401bf89eb53331f3f608381384bdf21b81380c37d2fde42fc1"},
		{"store file", encodeStoreFile(goldenArtifact()), "306a240603f9b07a94462878cd5c2cb9c6d0d43d359e01e3ee578327f5af01bb"},
	} {
		if got := sha(c.data); got != c.want {
			t.Errorf("%s: sha256 %s, want %s (%d bytes)", c.name, got, c.want, len(c.data))
		}
	}
}
