package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// The declarative fault matrix: the configuration the chaos sweep (the
// experiment registry's "chaos" entry, flipsbench -exp chaos) consumes. A
// matrix names a set of fault arms (scenario Specs), the aggregation folds
// and the selection strategies to cross them with; the sweep runs every
// fault × fold × strategy cell and reports time-to-accuracy degradation
// against the matching clean cell.

// MarshalJSON serializes a FaultModel as its name.
func (m FaultModel) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.String())
}

// UnmarshalJSON parses a FaultModel from its name.
func (m *FaultModel) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return fmt.Errorf("chaos: fault model must be a string name: %w", err)
	}
	parsed, err := FaultModelByName(name)
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// Arm is one named fault scenario of a matrix.
type Arm struct {
	Name string `json:"name"`
	Spec Spec   `json:"spec"`
}

// Matrix is the declarative fault-matrix configuration. Folds and
// Strategies are names resolved by the experiment layer (fl.FoldByName and
// the selector registry); this package validates only their shape.
type Matrix struct {
	Faults     []Arm    `json:"faults"`
	Folds      []string `json:"folds,omitempty"`
	Strategies []string `json:"strategies,omitempty"`
}

// DefaultMatrix returns the standard sweep: the survey's fault taxonomy —
// clean control, correlated regional outages, a flash crowd, data-poisoning
// label flips and 20% byzantine parties — crossed with every fold and the
// FLIPS and random selection strategies.
func DefaultMatrix() *Matrix {
	return &Matrix{
		Faults: []Arm{
			{Name: "clean", Spec: Spec{}},
			{Name: "outage", Spec: Spec{Regions: 4, OutageProb: 0.3, OutageLen: 5, DegradedProb: 0.2}},
			{Name: "flash-crowd", Spec: Spec{SurgeEvery: 10, SurgeLen: 2, SurgeFactor: 2}},
			{Name: "label-flip-20", Spec: Spec{FaultFraction: 0.2, Fault: FaultLabelFlip}},
			{Name: "byzantine-20", Spec: Spec{FaultFraction: 0.2, Fault: FaultByzantine}},
		},
		Folds:      []string{"mean", "trimmed-mean", "median", "krum"},
		Strategies: []string{"flips", "random"},
	}
}

// ParseMatrix parses a fault-matrix JSON document, strictly: unknown fields,
// trailing garbage, duplicate or empty arm names, empty fold/strategy names
// and invalid scenario specs are all errors. Omitted faults/folds/strategies
// fall back to the DefaultMatrix values. A leading UTF-8 BOM is ignored.
func ParseMatrix(data []byte) (*Matrix, error) {
	data = bytes.TrimPrefix(data, []byte{0xEF, 0xBB, 0xBF})
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m Matrix
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("chaos: matrix: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("chaos: matrix: trailing data after the JSON document")
	}
	def := DefaultMatrix()
	if len(m.Faults) == 0 {
		m.Faults = def.Faults
	}
	if len(m.Folds) == 0 {
		m.Folds = def.Folds
	}
	if len(m.Strategies) == 0 {
		m.Strategies = def.Strategies
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Validate checks matrix shape and every arm's scenario spec.
func (m *Matrix) Validate() error {
	if len(m.Faults) == 0 {
		return fmt.Errorf("chaos: matrix has no fault arms")
	}
	seen := make(map[string]bool, len(m.Faults))
	for i, arm := range m.Faults {
		if arm.Name == "" {
			return fmt.Errorf("chaos: matrix fault arm %d has no name", i)
		}
		if seen[arm.Name] {
			return fmt.Errorf("chaos: duplicate fault arm %q", arm.Name)
		}
		seen[arm.Name] = true
		if err := arm.Spec.Validate(); err != nil {
			return fmt.Errorf("chaos: fault arm %q: %w", arm.Name, err)
		}
	}
	for _, set := range []struct {
		what  string
		names []string
	}{{"fold", m.Folds}, {"strategy", m.Strategies}} {
		if len(set.names) == 0 {
			return fmt.Errorf("chaos: matrix has no %s names", set.what)
		}
		dup := make(map[string]bool, len(set.names))
		for _, n := range set.names {
			if n == "" {
				return fmt.Errorf("chaos: matrix has an empty %s name", set.what)
			}
			if dup[n] {
				return fmt.Errorf("chaos: duplicate %s %q", set.what, n)
			}
			dup[n] = true
		}
	}
	return nil
}

// LoadMatrixFile reads and parses a fault-matrix JSON file.
func LoadMatrixFile(path string) (*Matrix, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("chaos: matrix: %w", err)
	}
	m, err := ParseMatrix(data)
	if err != nil {
		return nil, fmt.Errorf("chaos: matrix %s: %w", path, err)
	}
	return m, nil
}
