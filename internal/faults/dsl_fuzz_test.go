package faults

import (
	"slices"
	"testing"
)

// FuzzParseFaults is the fault DSL's input contract: Parse never panics,
// every switch ID it accepts is in [0, 2^31) — no ID wraps onto another
// switch — and an accepted script re-parses from its DSL form to the same
// events.
func FuzzParseFaults(f *testing.F) {
	for _, s := range []string{
		"50us down 3-7; 80us up 3-7; 100us switch-down 4; 150us switch-up 4",
		"0s down 0-1\n# a comment\n1ms up 0-1",
		"2147483647ns switch-down 2147483647",
		// Refused: an unknown op, a missing time, a link without a peer, a
		// negative time, non-numeric IDs, IDs past int32 and negative IDs.
		"5us explode 1-2", "down 1-2", "5us down 12", "-5us down 1-2", "5us down a-b",
		"1us switch-down 4294967296", "1us down 4294967296-4294967297",
		"1us switch-down 2147483648", "1us down 3--5",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, dsl string) {
		script, err := Parse(dsl)
		if err != nil {
			return
		}
		for _, e := range script {
			if e.U < 0 || e.V < 0 {
				t.Fatalf("accepted %q with switch IDs %d-%d, want both in [0, 2^31)", dsl, e.U, e.V)
			}
		}
		text := script.DSL()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("DSL %q of accepted %q does not re-parse: %v", text, dsl, err)
		}
		if !slices.Equal(back, script) {
			t.Fatalf("%q re-parses from %q to %v, want %v", dsl, text, back, script)
		}
	})
}
