package antenna

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/geom"
)

// jsonAssignment is the stable wire format: sensors with their sectors.
type jsonAssignment struct {
	Sensors []jsonSensor `json:"sensors"`
}

type jsonSensor struct {
	X       float64      `json:"x"`
	Y       float64      `json:"y"`
	Sectors []jsonSector `json:"sectors,omitempty"`
}

type jsonSector struct {
	Start  float64 `json:"start"`
	Spread float64 `json:"spread"`
	Radius float64 `json:"radius"`
}

// WriteJSON serializes the assignment (points + oriented sectors) so a
// deployment can be stored, diffed, or fed to another tool.
func (a *Assignment) WriteJSON(w io.Writer) error {
	out := jsonAssignment{Sensors: make([]jsonSensor, a.N())}
	for i, p := range a.Pts {
		s := jsonSensor{X: p.X, Y: p.Y}
		for _, sec := range a.Sectors[i] {
			s.Sectors = append(s.Sectors, jsonSector{Start: sec.Start, Spread: sec.Spread, Radius: sec.Radius})
		}
		out.Sensors[i] = s
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadJSON parses an assignment previously written by WriteJSON.
func ReadJSON(r io.Reader) (*Assignment, error) {
	var in jsonAssignment
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("antenna: decode: %w", err)
	}
	pts := make([]geom.Point, len(in.Sensors))
	for i, s := range in.Sensors {
		pts[i] = geom.Point{X: s.X, Y: s.Y}
	}
	a := New(pts)
	for i, s := range in.Sensors {
		for _, sec := range s.Sectors {
			a.Add(i, geom.NewSector(sec.Start, sec.Spread, sec.Radius))
		}
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}
