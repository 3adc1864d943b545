package workload

import (
	"reflect"
	"testing"
)

// FuzzLoadTrace is the trace loader's input contract: LoadTrace never
// panics, every index of an accepted trace lies in range — processors in
// [0, Procs), a dep parent before its own entry — and an accepted trace
// re-parses from its Format to an equal trace.
func FuzzLoadTrace(f *testing.F) {
	for _, s := range []string{
		"trace 1\nprocs 4\nmsg 0 0 1 2\nmsg 10 3 0\ndep 0 5 1 2 3\n",
		"# a comment\n\ntrace 1\nprocs 2\nmsg  00  +1\t0\n",
		// Refused: no header, a bad count, an index out of range, a
		// parent that is not earlier, an unknown kind, and a count and an
		// index past int32.
		"procs 4\nmsg 0 0 1\n", "trace 1\nprocs 0\n", "trace 1\nprocs 4\nmsg 0 0 4\n",
		"trace 1\nprocs 4\ndep 0 1 0 1\n", "trace 1\nprocs 4\nping 0 0 1\n",
		"trace 1\nprocs 4294967296\nmsg 0 0 3000000000\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		tr, err := ParseTrace(text)
		if err != nil {
			return
		}
		for i, m := range tr.Msgs {
			if m.Parent < -1 || int(m.Parent) >= i {
				t.Fatalf("%q: entry %d has parent %d", text, i, m.Parent)
			}
			for _, p := range append([]int32{m.Src}, m.Dests...) {
				if p < 0 || int(p) >= tr.Procs {
					t.Fatalf("%q: entry %d names processor %d, want [0,%d)", text, i, p, tr.Procs)
				}
			}
		}
		out := tr.Format()
		back, err := ParseTrace(out)
		if err != nil {
			t.Fatalf("Format %q of accepted %q does not re-parse: %v", out, text, err)
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("%q re-parses from %q to %+v, want %+v", text, out, back, tr)
		}
	})
}
