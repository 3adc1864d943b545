package campaign

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParseManifest is the manifest boundary's input contract: Parse,
// Validate and NumCells never panic on any input; NumCells counts exactly
// the cells the manifest expands to; and an accepted manifest re-marshals
// to JSON that parses, validates and re-marshals to the same bytes.
func FuzzParseManifest(f *testing.F) {
	for _, name := range BuiltinNames() {
		m, _ := Builtin(name)
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"g","seed":3,"grids":[{"name":"a","topologies":["torus:3x3"],"scenarios":["mixed"],"fault_profiles":["","poisson"],"seeds":[1,2]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(data)
		if err != nil {
			return
		}
		n := m.NumCells()
		if n < 0 {
			t.Fatalf("NumCells = %d", n)
		}
		if n <= 1<<12 {
			if got := len(m.cells()); got != n {
				t.Fatalf("NumCells = %d, the manifest expands to %d cells", n, got)
			}
		}
		if m.Validate(false) != nil {
			return
		}
		once, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("accepted manifest does not marshal: %v", err)
		}
		back, err := Parse(once)
		if err != nil {
			t.Fatalf("re-marshalled manifest does not parse: %v\n%s", err, once)
		}
		if err := back.Validate(false); err != nil {
			t.Fatalf("re-marshalled manifest does not validate: %v\n%s", err, once)
		}
		twice, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("manifest re-marshals differently:\n%s\nvs\n%s", once, twice)
		}
	})
}
