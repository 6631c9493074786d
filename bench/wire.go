package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/plan"
	"repro/internal/pointset"
	"repro/internal/solution"
	"repro/internal/verify"
)

// The request bodies below mirror antennad's wire API (docs/OPERATIONS.md).

type wirePoint struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

type wireObjective struct {
	Conn     string `json:"conn"`
	Minimize string `json:"minimize"`
}

// budget is one request's (k, φ) and how its orienter is chosen: by
// name (algo) or by the planner (obj).
type budget struct {
	k    int
	phi  float64
	algo string
	obj  *wireObjective
	// resolved is the orienter that runs: algo, or the planner's pick.
	resolved string
	// guar is the a-priori guarantee the artifact is verified against.
	guar core.Guarantee
}

func (b budget) String() string {
	if b.obj != nil {
		return fmt.Sprintf("obj:%s/%s k=%d phi=%.4f", b.obj.Conn, b.obj.Minimize, b.k, b.phi)
	}
	return fmt.Sprintf("algo:%s k=%d phi=%.4f", b.algo, b.k, b.phi)
}

// cheapToVerify rejects guarantees that certify strong c-connectivity
// for c > 1: the verifier audits those by brute force, which took 140ms
// at n=1000 and 23s at n=10000 for k=2, φ=0 on a 2-vCPU x86-64 VM,
// so one such request would swamp a whole run.
func cheapToVerify(g core.Guarantee) bool { return g.StrongC <= 1 }

// namedBudget is algo at (k, φ), if algo supports it.
func namedBudget(algo string, k int, phi float64) (budget, bool) {
	o, ok := core.LookupOrienter(algo)
	if !ok {
		return budget{}, false
	}
	g, ok := o.Guarantee(k, phi)
	if !ok || !cheapToVerify(g) {
		return budget{}, false
	}
	return budget{k: k, phi: phi, algo: algo, resolved: algo, guar: g}, true
}

// objectiveBudget is the planner's choice for the objective at (k, φ),
// if one exists.
func objectiveBudget(conn, minimize string, k int, phi float64) (budget, bool) {
	c, err := plan.ParseConn(conn)
	if err != nil {
		return budget{}, false
	}
	m, err := plan.ParseMinimize(minimize)
	if err != nil {
		return budget{}, false
	}
	var p plan.Planner
	d, err := p.Plan(plan.Objective{Conn: c, Minimize: m}, k, phi)
	if err != nil || !cheapToVerify(d.Guarantee) {
		return budget{}, false
	}
	return budget{k: k, phi: phi, obj: &wireObjective{Conn: conn, Minimize: minimize},
		resolved: d.Winner, guar: d.Guarantee}, true
}

func wirePoints(pts []geom.Point) []wirePoint {
	out := make([]wirePoint, len(pts))
	for i, p := range pts {
		out[i] = wirePoint{X: p.X, Y: p.Y}
	}
	return out
}

// orientBody is a POST /orient body asking for the binary artifact.
func orientBody(pts []geom.Point, b budget) []byte {
	return mustJSON(struct {
		Points    []wirePoint    `json:"points"`
		K         int            `json:"k"`
		Phi       float64        `json:"phi"`
		Algo      string         `json:"algo,omitempty"`
		Objective *wireObjective `json:"objective,omitempty"`
		Format    string         `json:"format"`
	}{wirePoints(pts), b.k, b.phi, b.algo, b.obj, "binary"})
}

// createBody is a POST /instances body.
func createBody(id string, pts []geom.Point, b budget) []byte {
	return mustJSON(struct {
		ID        string         `json:"id"`
		Points    []wirePoint    `json:"points"`
		K         int            `json:"k"`
		Phi       float64        `json:"phi"`
		Algo      string         `json:"algo,omitempty"`
		Objective *wireObjective `json:"objective,omitempty"`
	}{id, wirePoints(pts), b.k, b.phi, b.algo, b.obj})
}

// mustJSON encodes values the benchmark builds itself; encoding them
// cannot fail.
func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

// checkSolution holds an artifact to what was asked: the digest of the
// points that were sent, their count, the budget, the orienter that
// should have run, and a passing verification verdict.
func checkSolution(sol *solution.Solution, digest string, n int, b budget) error {
	switch {
	case !sol.Verified:
		return fmt.Errorf("artifact not verified: %s", strings.Join(append(sol.VerifyErrors, sol.Violations...), "; "))
	case sol.PointsDigest != digest:
		return fmt.Errorf("artifact digest %.12s, sent %.12s", sol.PointsDigest, digest)
	case sol.N != n:
		return fmt.Errorf("artifact n=%d, sent %d", sol.N, n)
	case sol.K != b.k || sol.Phi != b.phi:
		return fmt.Errorf("artifact budget (%d, %v), asked (%d, %v)", sol.K, sol.Phi, b.k, b.phi)
	case sol.Algo != b.resolved:
		return fmt.Errorf("artifact algo %q, want %q", sol.Algo, b.resolved)
	}
	return nil
}

// checkBinary decodes a binary /orient artifact and checks it.
func checkBinary(body []byte, digest string, n int, b budget) (*solution.Solution, error) {
	sol, err := solution.DecodeBinary(body)
	if err != nil {
		return nil, fmt.Errorf("decode artifact: %w", err)
	}
	return sol, checkSolution(sol, digest, n, b)
}

// reverify re-checks an artifact over its points with the independent
// verifier, at the budgets its guarantee owes.
func reverify(sol *solution.Solution, pts []geom.Point, b budget) error {
	asg, err := sol.Assignment(pts)
	if err != nil {
		return err
	}
	if rep := verify.Check(asg, plan.VerifyBudgets(b.guar)); !rep.OK() {
		return fmt.Errorf("independent verification failed: %s", strings.Join(rep.Errors, "; "))
	}
	return nil
}

// genPoints draws one deployment of the named generator family.
func genPoints(family string, seed int64, n int) []geom.Point {
	return pointset.Workload(family, rand.New(rand.NewSource(seed)), n)
}

// subSeed derives an independent seed for element i of stream from the
// run seed (splitmix64 finalizer), so every input is a pure function of
// (seed, stream, i).
func subSeed(seed int64, stream, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(i)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

// mixer deals operation kinds in shuffled blocks with exact proportions:
// weights {12, 5, 3} yields 12 of kind 0, 5 of kind 1 and 3 of kind 2 in
// every 20 draws, so run-to-run differences never come from the mix.
type mixer struct {
	rng     *rand.Rand
	weights []int
	block   []int
}

func (m *mixer) next() int {
	if len(m.block) == 0 {
		for kind, w := range m.weights {
			for range w {
				m.block = append(m.block, kind)
			}
		}
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	k := m.block[0]
	m.block = m.block[1:]
	return k
}
