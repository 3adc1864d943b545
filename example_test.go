package spamnet_test

import (
	"fmt"

	spamnet "repro"
)

// The basic flow: build a network, open a session, multicast, run.
func ExampleSystem_NewSession() {
	sys, err := spamnet.NewFigure1()
	if err != nil {
		panic(err)
	}
	sess, err := sys.NewSession()
	if err != nil {
		panic(err)
	}
	// The paper's example: node 5 multicasts to nodes 8, 9, 10, 11.
	msg, err := sess.Multicast(0, 6, []spamnet.NodeID{7, 8, 9, 10})
	if err != nil {
		panic(err)
	}
	if err := sess.Run(); err != nil {
		panic(err)
	}
	fmt.Printf("delivered to %d destinations in %.2f us\n",
		len(msg.Dests), float64(msg.Latency())/1000)
	// Output: delivered to 4 destinations in 11.48 us
}

// Zero-load latency has a closed form; the simulator matches it exactly.
func ExampleSystem_ZeroLoadLatency() {
	sys, err := spamnet.NewFigure1()
	if err != nil {
		panic(err)
	}
	lat, err := sys.ZeroLoadLatency(6, []spamnet.NodeID{7, 8, 9, 10})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d ns\n", lat)
	// Output: 11480 ns
}

// Options tailor the hardware model; here: shorter messages and 4-flit
// input buffers.
func ExampleWithLatencyParams() {
	p := spamnet.PaperParams()
	p.MessageFlits = 32
	sys, err := spamnet.NewFigure1(
		spamnet.WithLatencyParams(p),
		spamnet.WithInputBufferFlits(4),
	)
	if err != nil {
		panic(err)
	}
	sess, err := sys.NewSession()
	if err != nil {
		panic(err)
	}
	msg, err := sess.Multicast(0, 6, []spamnet.NodeID{10})
	if err != nil {
		panic(err)
	}
	if err := sess.Run(); err != nil {
		panic(err)
	}
	fmt.Printf("%d flits in %.2f us\n", msg.Flits, float64(msg.Latency())/1000)
	// Output: 32 flits in 10.52 us
}

// Live fault injection: a scripted outage fires mid-traffic, the session
// drains every message in flight, relabels and hot-swaps its routing
// tables, and sources retry. Deterministic: the same script and seed always produce
// these numbers.
func ExampleSession_InstallFaults() {
	sys, err := spamnet.NewLattice(32, spamnet.WithSeed(42))
	if err != nil {
		panic(err)
	}
	sess, err := sys.NewSession()
	if err != nil {
		panic(err)
	}
	inj, err := sess.InstallFaults(
		spamnet.FaultSpec{DSL: "40us down 0-1; 90us up 0-1"},
		spamnet.FaultPolicy{MaxRetries: 3, RetryDelayNs: 10_000},
	)
	if err != nil {
		panic(err)
	}
	procs := sys.Processors()
	for t := int64(0); t < 150_000; t += 5_000 {
		src := procs[int(t/5_000)%len(procs)]
		dst := procs[(int(t/5_000)+7)%len(procs)]
		if _, err := sess.Multicast(t, src, []spamnet.NodeID{dst}); err != nil {
			panic(err)
		}
	}
	if err := sess.Run(); err != nil {
		panic(err)
	}
	m := inj.Metrics()
	fmt.Printf("events applied: %d, table swaps: %d, aborted: %d, retried: %d, lost: %d\n",
		m.EventsApplied, m.Swaps, m.WormsAborted, m.WormsRetried, m.MessagesLost)
	// Output: events applied: 2, table swaps: 2, aborted: 0, retried: 0, lost: 0
}

// The topology zoo: every family is selectable by spec string — the same
// grammar campaign manifests, the serve wire format and -topo flags use.
func ExampleNewFromSpec() {
	for _, spec := range []string{"torus:4x4", "hypercube:4", "fattree:2x3"} {
		sys, err := spamnet.NewFromSpec(spec)
		if err != nil {
			panic(err)
		}
		net := sys.Topology()
		fmt.Printf("%s: %d switches, %d processors, root %d\n",
			spec, net.NumSwitches, net.NumProcs, sys.Root())
	}
	// Output:
	// torus:4x4: 16 switches, 16 processors, root 0
	// hypercube:4: 16 switches, 16 processors, root 0
	// fattree:2x3: 12 switches, 8 processors, root 0
}

// Reconfiguration after a link failure keeps the network routable.
func ExampleSystem_Reconfigure() {
	sys, err := spamnet.NewFigure1()
	if err != nil {
		panic(err)
	}
	// The Figure-1 cycle 0-1-2 makes link {1,2} removable.
	sys2, err := sys.Reconfigure([][2]int{{1, 2}})
	if err != nil {
		panic(err)
	}
	sess, err := sys2.NewSession()
	if err != nil {
		panic(err)
	}
	msg, err := sess.Multicast(0, 6, []spamnet.NodeID{7})
	if err != nil {
		panic(err)
	}
	if err := sess.Run(); err != nil {
		panic(err)
	}
	fmt.Printf("still deliverable: %v\n", msg.Completed())
	// Output: still deliverable: true
}
