package topology

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The adjacency text format is the interchange form of the topology zoo: a
// line-oriented description that FormatAdjacency emits and LoadAdjacency
// reads back into an identical Network (round-trip property-tested).
//
//	# comment (and blank lines) ignored
//	switches <n> [maxports]
//	link <u> <v>           bidirectional switch-switch link
//	proc <switch> [count]  attach count processors (default 1)
//	coord <switch> <x> <y> optional lattice coordinate
//
// Directives may appear in any order after the switches line; processor IDs
// are assigned in proc-line order, matching the Builder's semantics.

// MaxAdmittedSwitches is the admission bound every externally supplied
// topology shares: request-named specs (serve's topology admission cap) and
// file-loaded adjacency text both refuse networks larger than this before
// any proportional allocation happens, so an adjacency upload cannot
// declare an enormous switch count. It is the range of the routing tables'
// uint16 class index, not a memory bound: with S switches a build
// transiently needs 4·S² + S²/8 bytes of compile scratch, ~16.1 GB for the
// 62500-switch fattree:25x4, while its labeling holds only arrays flat in
// the node and channel counts. Serve also refuses a spec whose predicted
// peak passes 2 GiB, which admits up to 22,816 switches.
const MaxAdmittedSwitches = 65536

// MaxAdmittedNodes bounds the same inputs' node count, switches plus
// processors: a small switch count cannot smuggle in a processor count whose
// per-node state exhausts memory. Each processor costs the network 32 bytes
// (its channel pair, two out-list slots, its out offset and its entry among
// its switch's processors), and the labeling and the simulator add
// per-node arrays and per-processor queues. The largest builtin network,
// fattree:25x4, has 453,125 nodes and its network holds 40.2 MiB.
const MaxAdmittedNodes = 1 << 20

// LoadAdjacency parses the adjacency text format into a validated Network.
func LoadAdjacency(r io.Reader) (*Network, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var b *Builder
	var coords [][2]int
	haveCoord := false
	// nodes counts the switches and the processors attached so far.
	nodes := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		ints := func(want int) ([]int, error) {
			if len(fields)-1 != want {
				return nil, fmt.Errorf("topology: line %d: %s wants %d args, got %d", lineNo, fields[0], want, len(fields)-1)
			}
			out := make([]int, want)
			for i, f := range fields[1:] {
				n, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("topology: line %d: bad integer %q", lineNo, f)
				}
				out[i] = n
			}
			return out, nil
		}
		switch fields[0] {
		case "switches":
			if b != nil {
				return nil, fmt.Errorf("topology: line %d: duplicate switches directive", lineNo)
			}
			args := fields[1:]
			if len(args) < 1 || len(args) > 2 {
				return nil, fmt.Errorf("topology: line %d: switches wants <n> [maxports]", lineNo)
			}
			n, err := strconv.Atoi(args[0])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("topology: line %d: bad switch count %q", lineNo, args[0])
			}
			if n > MaxAdmittedSwitches {
				return nil, fmt.Errorf("topology: line %d: %d switches exceeds the admission cap %d", lineNo, n, MaxAdmittedSwitches)
			}
			maxPorts := 0
			if len(args) == 2 {
				if maxPorts, err = strconv.Atoi(args[1]); err != nil || maxPorts < 0 {
					return nil, fmt.Errorf("topology: line %d: bad maxports %q", lineNo, args[1])
				}
			}
			b = NewBuilder(n, maxPorts)
			nodes = n
			coords = make([][2]int, n)
		case "link", "proc", "coord":
			if b == nil {
				return nil, fmt.Errorf("topology: line %d: %s before switches directive", lineNo, fields[0])
			}
			switch fields[0] {
			case "link":
				v, err := ints(2)
				if err != nil {
					return nil, err
				}
				b.Link(v[0], v[1])
			case "proc":
				count := 1
				v := fields[1:]
				if len(v) == 2 {
					n, err := strconv.Atoi(v[1])
					if err != nil || n < 1 {
						return nil, fmt.Errorf("topology: line %d: bad proc count %q", lineNo, v[1])
					}
					count = n
					v = v[:1]
				}
				if len(v) != 1 {
					return nil, fmt.Errorf("topology: line %d: proc wants <switch> [count]", lineNo)
				}
				sw, err := strconv.Atoi(v[0])
				if err != nil {
					return nil, fmt.Errorf("topology: line %d: bad switch %q", lineNo, v[0])
				}
				if count > MaxAdmittedNodes-nodes {
					return nil, fmt.Errorf("topology: line %d: %d more processors take the network past the admission cap of %d nodes", lineNo, count, MaxAdmittedNodes)
				}
				nodes += count
				for i := 0; i < count; i++ {
					b.AttachProcessor(sw)
				}
			case "coord":
				v, err := ints(3)
				if err != nil {
					return nil, err
				}
				if v[0] < 0 || v[0] >= len(coords) {
					return nil, fmt.Errorf("topology: line %d: coord switch %d out of range", lineNo, v[0])
				}
				coords[v[0]] = [2]int{v[1], v[2]}
				haveCoord = true
			}
		default:
			return nil, fmt.Errorf("topology: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("topology: reading adjacency: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("topology: adjacency input has no switches directive")
	}
	if haveCoord {
		b.SetCoords(coords)
	}
	return b.Build()
}

// FormatAdjacency renders a Network in the adjacency text format.
// LoadAdjacency(FormatAdjacency(n)) reconstructs an equivalent network:
// same switch graph, same processor attachment, same coordinates.
func FormatAdjacency(n *Network) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# spamnet adjacency: %d switches, %d processors, %d links\n",
		n.NumSwitches, n.NumProcs, n.Links())
	fmt.Fprintf(&sb, "switches %d\n", n.NumSwitches)
	for k := 0; k < n.Links(); k++ {
		u, v := n.Link(k)
		fmt.Fprintf(&sb, "link %d %d\n", u, v)
	}
	for p := n.NumSwitches; p < n.N(); p++ {
		fmt.Fprintf(&sb, "proc %d\n", n.SwitchOf(NodeID(p)))
	}
	if n.Coords != nil {
		for sw, c := range n.Coords {
			fmt.Fprintf(&sb, "coord %d %d %d\n", sw, c[0], c[1])
		}
	}
	return sb.String()
}
