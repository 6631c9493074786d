package service

import (
	"bytes"
	"encoding/json"
	"strconv"

	"repro/internal/geom"
)

// Request bodies carry the sensor set as a top-level "points" array of
// {"x":…,"y":…} objects, and that array is nearly all of a large body.
// Reflective encoding/json decodes it at a few tens of MB/s, which costs
// more than serving a cache hit, so decodeRequest parses the array with
// a dedicated one-pass scanner and hands encoding/json the rest of the
// body with the array replaced by []. The scanner only takes bodies it
// can prove encoding/json reads the same way; any other shape falls back
// to decoding the whole body with encoding/json, so accept/reject, the
// float64 bits and every other field are encoding/json's by
// construction.

// pointsBody is a request body whose points the scanner may fill.
type pointsBody interface {
	setPoints([]geom.Point)
}

func (o *orientRequest) setPoints(pts []geom.Point)         { o.Points = pts }
func (c *instanceCreateRequest) setPoints(pts []geom.Point) { c.Points = pts }

// decodeRequest decodes a request body into dst with unknown fields
// disallowed. Like json.Decoder.Decode, it ignores bytes after the
// first JSON value.
func decodeRequest(data []byte, dst any) error {
	if pb, ok := dst.(pointsBody); ok {
		if pts, rest, ok := splitPoints(data); ok {
			if err := decodeStrict(rest, dst); err != nil {
				return err
			}
			pb.setPoints(pts)
			return nil
		}
	}
	return decodeStrict(data, dst)
}

// decodeStrict is the standard decode every body shape can take.
func decodeStrict(data []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// splitPoints parses the top-level "points" array of the JSON object in
// d and returns its points together with d where that array is replaced
// by []. ok is false, and the caller decodes d whole, unless d is an
// object with exactly one key that case-folds to "points" (encoding/json
// lets the last of several win), that key is the unescaped "points", and
// its value is an array of {"x":N,"y":N} objects, keys in either order,
// each once, N a JSON number that strconv.ParseFloat accepts.
//
// The values of other keys are skipped, not validated: they stay in the
// residue, and encoding/json validates them there. That is sound because
// the excised span is a valid array in value position: if the bytes
// before it are a valid JSON prefix, the walk below agrees with the one
// way to parse them; if not, encoding/json rejects the residue on the
// same bytes it would have rejected in d.
func splitPoints(d []byte) (pts []geom.Point, rest []byte, ok bool) {
	i, c := next(d, 0)
	if c != '{' {
		return nil, nil, false
	}
	s, e := -1, -1
	for {
		// d[i] is the '{' or ',' before a key.
		if i, c = next(d, i+1); c != '"' {
			return nil, nil, false
		}
		k := i + 1
		for i = k; i < len(d) && d[i] != '"'; i++ {
			if d[i] == '\\' {
				return nil, nil, false
			}
		}
		key := d[k:i]
		if i, c = next(d, i+1); c != ':' {
			return nil, nil, false
		}
		i, c = next(d, i+1)
		switch {
		case string(key) == "points" && s < 0 && c == '[':
			s = i
			if pts, i, ok = parsePoints(d, i); !ok {
				return nil, nil, false
			}
			e = i
		case bytes.EqualFold(key, []byte("points")):
			return nil, nil, false
		default:
			if i, ok = skipValue(d, i); !ok {
				return nil, nil, false
			}
		}
		if i, c = next(d, i); c != ',' {
			break
		}
	}
	if c != '}' || s < 0 {
		return nil, nil, false
	}
	rest = make([]byte, 0, s+2+len(d)-e)
	rest = append(append(append(rest, d[:s]...), "[]"...), d[e:]...)
	return pts, rest, true
}

// parsePoints parses the array starting at d[i] == '[' and returns the
// index just past its closing bracket.
func parsePoints(d []byte, i int) ([]geom.Point, int, bool) {
	// Every element holds one '{' and takes at least 13 bytes
	// ({"x":0,"y":0}), so this bounds the count without ever reserving
	// more than about one point per 13 bytes of body.
	pts := make([]geom.Point, 0, min(bytes.Count(d[i:], []byte("{")), (len(d)-i)/13))
	if j, c := next(d, i+1); c == ']' {
		return pts, j + 1, true
	}
	for {
		// d[i] is the '[' or ',' before an element.
		p, j, ok := parsePoint(d, i+1)
		if !ok {
			return nil, 0, false
		}
		pts = append(pts, p)
		var c byte
		if i, c = next(d, j); c == ']' {
			return pts, i + 1, true
		} else if c != ',' {
			return nil, 0, false
		}
	}
}

// parsePoint parses one {"x":N,"y":N} object (keys in either order,
// each once) at the first non-space byte from d[i] and returns the
// index just past its closing brace.
func parsePoint(d []byte, i int) (geom.Point, int, bool) {
	var p geom.Point
	i, c := next(d, i)
	if c != '{' {
		return p, 0, false
	}
	var seen byte // bit 0: x, bit 1: y
	for seen != 3 {
		// d[i] is the '{' or ',' before a key.
		if i, c = next(d, i+1); c != '"' || i+2 >= len(d) || d[i+2] != '"' {
			return p, 0, false
		}
		var dst *float64
		var bit byte
		switch d[i+1] {
		case 'x':
			dst, bit = &p.X, 1
		case 'y':
			dst, bit = &p.Y, 2
		}
		if bit == 0 || seen&bit != 0 {
			return p, 0, false
		}
		seen |= bit
		if i, c = next(d, i+3); c != ':' {
			return p, 0, false
		}
		i, _ = next(d, i+1)
		var ok bool
		if *dst, i, ok = parseNumber(d, i); !ok {
			return p, 0, false
		}
		want := byte(',')
		if seen == 3 {
			want = '}'
		}
		if i, c = next(d, i); c != want {
			return p, 0, false
		}
	}
	return p, i + 1, true
}

// parseNumber parses the JSON number starting at d[i] and returns the
// index just past it. strconv.ParseFloat is laxer than JSON (it takes
// "+1", ".5", "1.", "Inf", "0x1p3"), and encoding/json never sees these
// bytes, so the JSON grammar is checked here first; the digits after a
// leading zero are left to the caller, which then finds no delimiter.
func parseNumber(d []byte, i int) (float64, int, bool) {
	j := i
	if j < len(d) && d[j] == '-' {
		j++
	}
	switch {
	case j < len(d) && d[j] == '0':
		j++
	case j < len(d) && '1' <= d[j] && d[j] <= '9':
		j = skipDigits(d, j+1)
	default:
		return 0, 0, false
	}
	if j < len(d) && d[j] == '.' {
		k := skipDigits(d, j+1)
		if k == j+1 {
			return 0, 0, false
		}
		j = k
	}
	if j < len(d) && (d[j] == 'e' || d[j] == 'E') {
		j++
		if j < len(d) && (d[j] == '+' || d[j] == '-') {
			j++
		}
		k := skipDigits(d, j)
		if k == j {
			return 0, 0, false
		}
		j = k
	}
	// encoding/json stores a float64 field with this same call, and
	// rejects the body when it fails (1e400 is out of range).
	f, err := strconv.ParseFloat(string(d[i:j]), 64)
	if err != nil {
		return 0, 0, false
	}
	return f, j, true
}

func skipDigits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// next skips JSON whitespace from d[i] and returns the index of the
// next byte and that byte; the byte is 0 past the end of d.
func next(d []byte, i int) (int, byte) {
	for ; i < len(d); i++ {
		switch d[i] {
		case ' ', '\t', '\n', '\r':
		default:
			return i, d[i]
		}
	}
	return i, 0
}

// skipValue returns the index just past the value starting at d[i]. It
// only reads what it takes to find the end: strings with their escapes,
// and bracket depth. A scalar ends at the first ',', '}' or ']' outside
// any bracket.
func skipValue(d []byte, i int) (int, bool) {
	depth := 0
	for ; i < len(d); i++ {
		switch d[i] {
		case '"':
			for i++; i < len(d) && d[i] != '"'; i++ {
				if d[i] == '\\' {
					i++
				}
			}
			if i >= len(d) {
				return 0, false
			}
			if depth == 0 {
				return i + 1, true
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth == 0 {
				return i, true
			}
			if depth--; depth == 0 {
				return i + 1, true
			}
		case ',':
			if depth == 0 {
				return i, true
			}
		}
	}
	return 0, false
}
