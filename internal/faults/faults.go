package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates topology mutations.
type Kind uint8

const (
	// LinkDown fails the bidirectional switch link {U, V}.
	LinkDown Kind = iota
	// LinkUp repairs the failed link {U, V}.
	LinkUp
	// SwitchDown drains switch U for maintenance: every incident live link
	// fails, in ascending neighbor order, except links whose failure would
	// disconnect the live switch graph (a relabelable network must stay
	// connected, so a switch always keeps at least one link).
	SwitchDown
	// SwitchUp restores every failed link incident to switch U.
	SwitchUp
)

func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "down"
	case LinkUp:
		return "up"
	case SwitchDown:
		return "switch-down"
	case SwitchUp:
		return "switch-up"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one timed topology mutation. For link events U-V is the
// bidirectional switch link; for switch events only U is meaningful.
type Event struct {
	AtNs int64
	Kind Kind
	U, V int32
}

func (e Event) String() string {
	d := time.Duration(e.AtNs) * time.Nanosecond
	switch e.Kind {
	case SwitchDown, SwitchUp:
		return fmt.Sprintf("%s %s %d", d, e.Kind, e.U)
	default:
		return fmt.Sprintf("%s %s %d-%d", d, e.Kind, e.U, e.V)
	}
}

// Script is a time-ordered fault timeline.
type Script []Event

// Validate checks time ordering (non-decreasing, non-negative).
func (s Script) Validate() error {
	for i, e := range s {
		if e.AtNs < 0 {
			return fmt.Errorf("faults: event %d at negative time %d", i, e.AtNs)
		}
		if i > 0 && e.AtNs < s[i-1].AtNs {
			return fmt.Errorf("faults: event %d (t=%d) before event %d (t=%d)", i, e.AtNs, i-1, s[i-1].AtNs)
		}
	}
	return nil
}

// sortScript orders events by (time, kind, U, V) — the canonical
// deterministic order generators emit.
func sortScript(s Script) {
	sort.Slice(s, func(i, j int) bool {
		a, b := s[i], s[j]
		if a.AtNs != b.AtNs {
			return a.AtNs < b.AtNs
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})
}

// DSL renders the script in the compact text form Parse reads:
// semicolon-separated "<time> <op> <args>" entries, e.g.
//
//	50us down 3-7; 80us up 3-7; 100us switch-down 4; 150us switch-up 4
func (s Script) DSL() string {
	var sb strings.Builder
	for i, e := range s {
		if i > 0 {
			sb.WriteString("; ")
		}
		sb.WriteString(e.String())
	}
	return sb.String()
}

// Parse reads the DSL form: entries separated by ';' or newlines, each
// "<duration> <op> <args>" with op one of down|up|switch-down|switch-up,
// link args "u-v" and switch args "u", each ID a decimal in [0, 2^31).
// Durations use Go syntax (ns, us, µs, ms, s). Events are sorted into
// canonical order.
func Parse(dsl string) (Script, error) {
	var out Script
	for _, entry := range strings.FieldsFunc(dsl, func(r rune) bool { return r == ';' || r == '\n' }) {
		entry = strings.TrimSpace(entry)
		if entry == "" || strings.HasPrefix(entry, "#") {
			continue
		}
		fields := strings.Fields(entry)
		if len(fields) != 3 {
			return nil, fmt.Errorf("faults: entry %q: want \"<time> <op> <args>\"", entry)
		}
		d, err := time.ParseDuration(fields[0])
		if err != nil || d < 0 {
			return nil, fmt.Errorf("faults: entry %q: bad time %q", entry, fields[0])
		}
		ev := Event{AtNs: d.Nanoseconds()}
		switch fields[1] {
		case "down":
			ev.Kind = LinkDown
		case "up":
			ev.Kind = LinkUp
		case "switch-down":
			ev.Kind = SwitchDown
		case "switch-up":
			ev.Kind = SwitchUp
		default:
			return nil, fmt.Errorf("faults: entry %q: unknown op %q (down|up|switch-down|switch-up)", entry, fields[1])
		}
		switch ev.Kind {
		case SwitchDown, SwitchUp:
			u, ok := parseID(fields[2])
			if !ok {
				return nil, fmt.Errorf("faults: entry %q: bad switch %q", entry, fields[2])
			}
			ev.U = u
		default:
			uv := strings.SplitN(fields[2], "-", 2)
			if len(uv) != 2 {
				return nil, fmt.Errorf("faults: entry %q: link args must be u-v", entry)
			}
			u, ok1 := parseID(uv[0])
			v, ok2 := parseID(uv[1])
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("faults: entry %q: bad link %q", entry, fields[2])
			}
			ev.U, ev.V = u, v
		}
		out = append(out, ev)
	}
	sortScript(out)
	return out, nil
}

// parseID reads one switch ID: a decimal in [0, 2^31), so no ID wraps into
// another when it is stored as an int32.
func parseID(s string) (int32, bool) {
	u, err := strconv.ParseInt(s, 10, 32)
	if err != nil || u < 0 {
		return 0, false
	}
	return int32(u), true
}
