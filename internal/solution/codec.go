package solution

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
)

// The binary codec is hand-rolled so the byte stream is fully specified
// (see WIRE_FORMAT.md) and deterministic: same Solution, same bytes, on
// every platform. encoding/json already guarantees determinism for the
// JSON codec because Solution contains no maps.

// binaryMagic opens every binary artifact.
var binaryMagic = [4]byte{'A', 'S', 'O', 'L'}

// Minimum encoded sizes of the repeated elements, the divisors of
// Reader.Count: a count may not promise more elements than the bytes
// left could hold.
const (
	sensorSize   = 2  // u16 sector count
	sectorSize   = 24 // f64 start, spread, radius
	changedSize  = 6  // u32 index + u16 sector count
	strEntrySize = 4  // u32 string length
)

// Writer appends the little-endian encoding shared by every binary
// format of the service: the artifact, the store file's payload, the
// ADLT delta and the instance WAL (WIRE_FORMAT.md). Integers are
// little-endian, floats their IEEE-754 bits, strings a u32 length plus
// bytes, string lists a u32 count plus strings, booleans one byte.
type Writer struct{ buf []byte }

// Bytes returns everything written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// Raw appends b verbatim.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// F64 appends the IEEE-754 bits of v.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Str appends a u32 length and the bytes of s.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Strs appends a u32 count and each string.
func (w *Writer) Strs(ss []string) {
	w.U32(uint32(len(ss)))
	for _, s := range ss {
		w.Str(s)
	}
}

// Bool appends 1 for true, 0 for false.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Reader decodes what Writer wrote. The first failure sticks: every
// later read returns a zero value, and Err or Done reports the failure.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a Reader positioned at the start of data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first failure, if any.
func (r *Reader) Err() error { return r.err }

// Done returns the first failure, or an error when bytes remain unread:
// every format ends exactly where its last field does.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.data) {
		return fmt.Errorf("solution: %d trailing bytes", len(r.data)-r.off)
	}
	return r.err
}

// Take consumes the next n bytes.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.off {
		r.err = fmt.Errorf("solution: truncated at offset %d (+%d of %d bytes)", r.off, n, len(r.data))
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// Count checks n, a count just read, against the bytes left: n elements
// of at least minSize bytes each must fit. It returns n, or 0 after
// failing the reader, so a crafted count cannot make the caller
// allocate beyond the input's own size.
func (r *Reader) Count(n, minSize int) int {
	if r.err != nil {
		return 0
	}
	if left := len(r.data) - r.off; n > left/minSize {
		r.err = fmt.Errorf("solution: count %d exceeds the %d bytes left (%d-byte elements)", n, left, minSize)
		return 0
	}
	return n
}

// fixed takes n bytes, or n zero bytes once the reader has failed.
func (r *Reader) fixed(n int) []byte {
	if b := r.Take(n); b != nil {
		return b
	}
	return make([]byte, n)
}

// U8 reads one byte.
func (r *Reader) U8() uint8 { return r.fixed(1)[0] }

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 { return binary.LittleEndian.Uint16(r.fixed(2)) }

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }

// F64 reads a float from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Str reads a u32 length and that many bytes.
func (r *Reader) Str() string { return string(r.Take(r.Count(int(r.U32()), 1))) }

// Strs reads a u32 count and that many strings; nil for none.
func (r *Reader) Strs() []string {
	n := r.Count(int(r.U32()), strEntrySize)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.Str()
	}
	return out
}

// Bool reads one byte; any nonzero value is true.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// The artifact and the delta carry the same scalar fields in the same
// order, split around the artifact's sector block: the head (n through
// the guarantee) and the tail (l_max through the violations). Each
// block, and a sensor's sector list, has exactly one writer and one
// reader.

func (s *Solution) writeHead(w *Writer) {
	w.U32(uint32(s.N))
	w.U16(uint16(s.K))
	w.F64(s.Phi)
	w.Str(s.Objective)
	w.Bool(s.Planned)
	w.Str(s.Algo)
	w.Str(s.Construction)
	w.Str(s.Guarantee.Conn)
	w.F64(s.Guarantee.Stretch)
	w.U16(uint16(s.Guarantee.Antennae))
	w.F64(s.Guarantee.Spread)
	w.U16(uint16(s.Guarantee.StrongC))
}

func (s *Solution) readHead(r *Reader) {
	s.N = int(r.U32())
	s.K = int(r.U16())
	s.Phi = r.F64()
	s.Objective = r.Str()
	s.Planned = r.Bool()
	s.Algo = r.Str()
	s.Construction = r.Str()
	s.Guarantee.Conn = r.Str()
	s.Guarantee.Stretch = r.F64()
	s.Guarantee.Antennae = int(r.U16())
	s.Guarantee.Spread = r.F64()
	s.Guarantee.StrongC = int(r.U16())
}

func (s *Solution) writeTail(w *Writer) {
	w.F64(s.LMax)
	w.F64(s.Bound)
	w.F64(s.ProvedBound)
	w.F64(s.RadiusUsed)
	w.F64(s.RadiusRatio)
	w.F64(s.SpreadUsed)
	w.U32(uint32(s.Edges))
	w.Bool(s.Verified)
	w.Strs(s.VerifyErrors)
	w.Strs(s.Violations)
}

func (s *Solution) readTail(r *Reader) {
	s.LMax = r.F64()
	s.Bound = r.F64()
	s.ProvedBound = r.F64()
	s.RadiusUsed = r.F64()
	s.RadiusRatio = r.F64()
	s.SpreadUsed = r.F64()
	s.Edges = int(r.U32())
	s.Verified = r.Bool()
	s.VerifyErrors = r.Strs()
	s.Violations = r.Strs()
}

// writeSectors writes one sensor's antennae: a u16 count, then each
// sector's start, spread and radius.
func writeSectors(w *Writer, secs []Sector) {
	w.U16(uint16(len(secs)))
	for _, sec := range secs {
		w.F64(sec.Start)
		w.F64(sec.Spread)
		w.F64(sec.Radius)
	}
}

// readSectors reads what writeSectors wrote; nil for no antennae.
func readSectors(r *Reader) []Sector {
	n := r.Count(int(r.U16()), sectorSize)
	if n == 0 {
		return nil
	}
	secs := make([]Sector, n)
	for i := range secs {
		secs[i] = Sector{Start: r.F64(), Spread: r.F64(), Radius: r.F64()}
	}
	return secs
}

// EncodeBinary serializes the artifact in the deterministic binary
// layout of WIRE_FORMAT.md.
func (s *Solution) EncodeBinary() []byte {
	w := Writer{buf: make([]byte, 0, s.EncodedBinarySize())}
	w.Raw(binaryMagic[:])
	w.U16(uint16(s.Version))
	w.Str(s.PointsDigest)
	s.writeHead(&w)
	w.U32(uint32(len(s.Sectors)))
	for _, secs := range s.Sectors {
		writeSectors(&w, secs)
	}
	s.writeTail(&w)
	return w.Bytes()
}

// EncodedBinarySize returns len(EncodeBinary()) without encoding: the
// binary layout is fully determined by the field values, so the size is
// pure arithmetic. The byte-charged cache (cache.go) and the disk store
// (store.go) use it to account for an artifact's footprint cheaply.
func (s *Solution) EncodedBinarySize() int {
	strSize := func(v string) int { return 4 + len(v) }
	strsSize := func(vs []string) int {
		n := 4
		for _, v := range vs {
			n += strSize(v)
		}
		return n
	}
	n := 4 + 2 // magic + version
	n += strSize(s.PointsDigest)
	n += 4 + 2 + 8 // n, k, phi
	n += strSize(s.Objective) + 1 + strSize(s.Algo) + strSize(s.Construction)
	n += strSize(s.Guarantee.Conn) + 8 + 2 + 8 + 2
	n += 4 // sensor count
	for _, secs := range s.Sectors {
		n += 2 + 24*len(secs)
	}
	n += 6*8 + 4 // measured floats + edges
	n += 1 + strsSize(s.VerifyErrors) + strsSize(s.Violations)
	return n
}

// DecodeBinary parses an artifact produced by EncodeBinary.
func DecodeBinary(data []byte) (*Solution, error) {
	r := NewReader(data)
	if magic := r.Take(4); r.err == nil && [4]byte(magic) != binaryMagic {
		return nil, fmt.Errorf("solution: bad magic %q", magic)
	}
	s := &Solution{Version: int(r.U16())}
	if r.err == nil && s.Version != Version {
		return nil, fmt.Errorf("solution: unsupported artifact version %d (have %d)", s.Version, Version)
	}
	s.PointsDigest = r.Str()
	s.readHead(r)
	if ns := r.Count(int(r.U32()), sensorSize); ns > 0 {
		s.Sectors = make([][]Sector, ns)
		for u := range s.Sectors {
			s.Sectors[u] = readSectors(r)
		}
	}
	s.readTail(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return s, nil
}

// EncodeJSON serializes the artifact as a single JSON document with a
// trailing newline. encoding/json emits struct fields in declaration
// order and Solution holds no maps, so equal artifacts produce identical
// bytes.
func (s *Solution) EncodeJSON() ([]byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeJSON parses an artifact produced by EncodeJSON.
func DecodeJSON(data []byte) (*Solution, error) {
	s := &Solution{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("solution: decode: %w", err)
	}
	if s.Version != Version {
		return nil, fmt.Errorf("solution: unsupported artifact version %d (have %d)", s.Version, Version)
	}
	return s, nil
}
