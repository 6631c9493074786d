package solution

import (
	"encoding/json"
	"fmt"

	"repro/internal/geom"
)

// The ADLT delta codec ships a live instance's revision as a patch
// against its predecessor artifact instead of a full re-encoding: the
// base artifact's digest, the mutation batch that produced the revision,
// the sector lists of only the sensors the repair actually re-aimed, and
// the revision's scalar tail (measured radii, verification record). For
// the localized repairs of internal/instance the changed-sector list is a
// handful of sensors, so a delta is orders of magnitude smaller than the
// ~24-bytes-per-antenna full artifact. Layout spec: WIRE_FORMAT.md.

// OpKind discriminates the point mutations of a live instance.
type OpKind uint8

const (
	// OpAdd appends a new sensor at (X, Y).
	OpAdd OpKind = 1 + iota
	// OpRemove deletes the sensor at Index; the indices of all later
	// sensors shift down by one.
	OpRemove
	// OpMove relocates the sensor at Index to (X, Y), keeping its index.
	OpMove
)

// String renders the op kind as its wire name.
func (k OpKind) String() string {
	switch k {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	case OpMove:
		return "move"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// MarshalJSON renders the kind as its name ("add"|"remove"|"move").
func (k OpKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON parses an op-kind name.
func (k *OpKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "add":
		*k = OpAdd
	case "remove":
		*k = OpRemove
	case "move":
		*k = OpMove
	default:
		return fmt.Errorf("solution: unknown op kind %q (add|remove|move)", s)
	}
	return nil
}

// PointOp is one mutation of a live instance's sensor set — the shared
// vocabulary of the instance manager (internal/instance), the antennad
// instance API, and the ADLT delta codec. Ops within a batch apply
// sequentially, each seeing the index space the previous ones left
// behind.
type PointOp struct {
	Op    OpKind  `json:"op"`
	Index int     `json:"index,omitempty"` // OpRemove / OpMove target
	X     float64 `json:"x,omitempty"`     // OpAdd / OpMove coordinates
	Y     float64 `json:"y,omitempty"`
}

// PlanOps simulates a batch over an index space of size nOld and returns
// the mapping it induces: old2new[i] is the new index of old sensor i
// (-1 when removed), nNew the new sensor count, and fresh the ascending
// new indices whose position is not inherited from the old set (added
// sensors, and moved sensors under their final coordinates). This one
// function defines the batch semantics for every consumer — the instance
// manager applies it to points, the delta codec to sector lists.
func PlanOps(nOld int, ops []PointOp) (old2new []int, nNew int, fresh []int, err error) {
	type slot struct {
		old   int // -1 for added sensors
		fresh bool
	}
	cur := make([]slot, nOld)
	for i := range cur {
		cur[i] = slot{old: i}
	}
	for oi, op := range ops {
		switch op.Op {
		case OpAdd:
			cur = append(cur, slot{old: -1, fresh: true})
		case OpRemove:
			if op.Index < 0 || op.Index >= len(cur) {
				return nil, 0, nil, fmt.Errorf("solution: op %d: remove index %d out of range [0, %d)", oi, op.Index, len(cur))
			}
			cur = append(cur[:op.Index], cur[op.Index+1:]...)
		case OpMove:
			if op.Index < 0 || op.Index >= len(cur) {
				return nil, 0, nil, fmt.Errorf("solution: op %d: move index %d out of range [0, %d)", oi, op.Index, len(cur))
			}
			cur[op.Index].fresh = true
		default:
			return nil, 0, nil, fmt.Errorf("solution: op %d: unknown kind %d", oi, op.Op)
		}
	}
	old2new = make([]int, nOld)
	for i := range old2new {
		old2new[i] = -1
	}
	for i, s := range cur {
		if s.fresh {
			fresh = append(fresh, i)
		}
		if s.old >= 0 && !s.fresh {
			old2new[s.old] = i
		}
	}
	return old2new, len(cur), fresh, nil
}

// ApplyPointOps materializes a batch over a point slice with the
// sequential semantics of PlanOps — the one op-application routine
// shared by the instance manager and the benchmarks' shadow copies.
func ApplyPointOps(pts []geom.Point, ops []PointOp) ([]geom.Point, error) {
	out := append([]geom.Point(nil), pts...)
	for oi, op := range ops {
		switch op.Op {
		case OpAdd:
			out = append(out, geom.Point{X: op.X, Y: op.Y})
		case OpRemove:
			if op.Index < 0 || op.Index >= len(out) {
				return nil, fmt.Errorf("solution: op %d: remove index %d out of range [0, %d)", oi, op.Index, len(out))
			}
			out = append(out[:op.Index], out[op.Index+1:]...)
		case OpMove:
			if op.Index < 0 || op.Index >= len(out) {
				return nil, fmt.Errorf("solution: op %d: move index %d out of range [0, %d)", oi, op.Index, len(out))
			}
			out[op.Index] = geom.Point{X: op.X, Y: op.Y}
		default:
			return nil, fmt.Errorf("solution: op %d: unknown kind %d", oi, op.Op)
		}
	}
	return out, nil
}

// deltaMagic opens every ADLT delta.
var deltaMagic = [4]byte{'A', 'D', 'L', 'T'}

// DeltaVersion is the current delta schema version.
const DeltaVersion = 1

// opSize is the encoded size of one PointOp.
const opSize = 21

// Ops writes a batch in the op layout shared by the ADLT delta and the
// instance WAL: a u32 count, then per op u8 kind, u32 index, f64 x and
// f64 y.
func (w *Writer) Ops(ops []PointOp) {
	w.U32(uint32(len(ops)))
	for _, op := range ops {
		w.U8(uint8(op.Op))
		w.U32(uint32(op.Index))
		w.F64(op.X)
		w.F64(op.Y)
	}
}

// Ops reads what Writer.Ops wrote; nil for an empty batch. Kinds and
// indices are not validated here: PlanOps and ApplyPointOps reject them.
func (r *Reader) Ops() []PointOp {
	n := r.Count(int(r.U32()), opSize)
	if n == 0 {
		return nil
	}
	ops := make([]PointOp, n)
	for i := range ops {
		ops[i] = PointOp{Op: OpKind(r.U8()), Index: int(r.U32()), X: r.F64(), Y: r.F64()}
	}
	return ops
}

// EncodeDelta serializes next as an ADLT patch against base: the batch
// that produced it plus only the sector lists that differ after index
// remapping. Both artifacts must share budget and selection metadata (a
// revision never changes them). ApplyDelta(base, EncodeDelta(base, next,
// ops)) reproduces next exactly, byte-identical under both full codecs.
func EncodeDelta(base, next *Solution, ops []PointOp) ([]byte, error) {
	old2new, nNew, _, err := PlanOps(base.N, ops)
	if err != nil {
		return nil, err
	}
	if nNew != next.N {
		return nil, fmt.Errorf("solution: ops map %d sensors to %d, artifact has %d", base.N, nNew, next.N)
	}
	inherited := make([]int, next.N) // new index -> old index, -1 = fresh
	for i := range inherited {
		inherited[i] = -1
	}
	for o, n := range old2new {
		if n >= 0 {
			inherited[n] = o
		}
	}
	var changed []int
	for i := 0; i < next.N; i++ {
		if o := inherited[i]; o < 0 || !sectorsEqual(base.Sectors[o], next.Sectors[i]) {
			changed = append(changed, i)
		}
	}
	var w Writer
	w.Raw(deltaMagic[:])
	w.U16(DeltaVersion)
	w.Str(base.PointsDigest)
	w.Str(next.PointsDigest)
	w.Ops(ops)
	w.U32(uint32(len(changed)))
	for _, i := range changed {
		w.U32(uint32(i))
		writeSectors(&w, next.Sectors[i])
	}
	next.writeHead(&w)
	next.writeTail(&w)
	return w.Bytes(), nil
}

// DeltaInfo is the decoded header of an ADLT delta, exposed so callers
// can route and account for deltas without materializing the artifact.
type DeltaInfo struct {
	BaseDigest string
	NewDigest  string
	Ops        []PointOp
	Changed    int
}

// ApplyDelta reconstructs the next revision's full artifact from its
// base and an ADLT patch. It fails when the patch was cut against a
// different base artifact, on any truncation, and on trailing bytes.
func ApplyDelta(base *Solution, data []byte) (*Solution, error) {
	r, info, err := readDeltaHeader(data)
	if err != nil {
		return nil, err
	}
	if info.BaseDigest != base.PointsDigest {
		return nil, fmt.Errorf("solution: delta base %.12s does not match artifact %.12s", info.BaseDigest, base.PointsDigest)
	}
	old2new, nNew, _, err := PlanOps(base.N, info.Ops)
	if err != nil {
		return nil, err
	}
	// Inherited sectors survive under their new indices; changed entries
	// overwrite below.
	sectors := make([][]Sector, nNew)
	for o, n := range old2new {
		if n >= 0 {
			sectors[n] = base.Sectors[o]
		}
	}
	for i := 0; i < info.Changed; i++ {
		idx := int(r.U32())
		if r.err == nil && idx >= nNew {
			return nil, fmt.Errorf("solution: changed sensor %d out of range [0, %d)", idx, nNew)
		}
		if secs := readSectors(r); r.err == nil {
			sectors[idx] = secs
		}
	}
	next := &Solution{Version: Version, PointsDigest: info.NewDigest, Sectors: sectors}
	next.readHead(r)
	next.readTail(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	if next.N != nNew {
		return nil, fmt.Errorf("solution: delta tail claims %d sensors, ops map to %d", next.N, nNew)
	}
	return next, nil
}

// DecodeDeltaInfo parses just the header of an ADLT patch.
func DecodeDeltaInfo(data []byte) (*DeltaInfo, error) {
	_, info, err := readDeltaHeader(data)
	return info, err
}

// readDeltaHeader checks magic and version and parses the header
// through the changed-sensor count, leaving the reader at the first
// changed entry.
func readDeltaHeader(data []byte) (*Reader, *DeltaInfo, error) {
	r := NewReader(data)
	if magic := r.Take(4); r.err != nil || [4]byte(magic) != deltaMagic {
		return nil, nil, fmt.Errorf("solution: bad delta magic")
	}
	if v := r.U16(); r.err == nil && v != DeltaVersion {
		return nil, nil, fmt.Errorf("solution: unsupported delta version %d (have %d)", v, DeltaVersion)
	}
	info := &DeltaInfo{BaseDigest: r.Str(), NewDigest: r.Str(), Ops: r.Ops()}
	info.Changed = r.Count(int(r.U32()), changedSize)
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	return r, info, nil
}

// sectorsEqual compares wire sector lists exactly: the pipeline is
// deterministic, so an unchanged sensor re-encodes bit-identically.
func sectorsEqual(a, b []Sector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
