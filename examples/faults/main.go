// Command faults demonstrates live fault injection: a mixed traffic stream
// runs over a 64-switch irregular network while links fail and return on a
// scripted timeline plus a seeded Poisson storm. Each mutation drains the
// messages in flight, relabels the surviving topology and hot-swaps the
// compiled routing tables in place; drained messages are retried by their
// sources. The run is fully deterministic: re-running prints identical
// numbers.
package main

import (
	"fmt"
	"log"

	spamnet "repro"
)

func main() {
	sys, err := spamnet.NewLattice(64, spamnet.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	sess, err := sys.NewSession()
	if err != nil {
		log.Fatal(err)
	}

	// An explicit timeline: one link outage and one maintenance drain.
	scripted := spamnet.FaultSpec{
		DSL: "120us down 0-1; 200us switch-down 7; 320us switch-up 7; 400us up 0-1",
	}

	inj, err := sess.InstallFaults(scripted, spamnet.FaultPolicy{
		MaxRetries:   3,
		RetryDelayNs: 10_000,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Open-loop traffic: every processor sends a unicast burst every 25 µs
	// for 0.8 ms of simulated time.
	procs := sys.Processors()
	var msgs []*spamnet.Message
	for t := int64(0); t < 800_000; t += 25_000 {
		for i, src := range procs {
			dst := procs[(i+13)%len(procs)]
			if dst == src {
				continue
			}
			m, err := sess.Multicast(t, src, []spamnet.NodeID{dst})
			if err != nil {
				log.Fatal(err)
			}
			msgs = append(msgs, m)
		}
	}
	if err := sess.Run(); err != nil {
		log.Fatal(err)
	}

	direct := 0
	var worst int64
	for _, m := range msgs {
		if m.Completed() {
			direct++
			if l := m.Latency(); l > worst {
				worst = l
			}
		}
	}
	met := inj.Metrics()
	fmt.Printf("messages: %d submitted, %d delivered undisturbed, %d delivered after retry, %d lost\n",
		len(msgs), direct, met.DisruptHist.Count(), met.MessagesLost)
	fmt.Printf("faults:   %d events applied (%d rejected), %d table swaps, %d links failed / %d repaired\n",
		met.EventsApplied, met.EventsRejected, met.Swaps, met.LinkDowns, met.LinkUps)
	fmt.Printf("drain:    %d worms aborted, %d retries issued, %d exhausted\n",
		met.WormsAborted, met.WormsRetried, met.RetriesExhausted)
	fmt.Printf("latency:  worst delivered %.1f us; availability %.4f\n",
		float64(worst)/1000, inj.Availability())
	if met.DisruptHist.Count() > 0 {
		fmt.Printf("disrupted messages (retried, then delivered): %d, p50 %.1f us, p99 %.1f us\n",
			met.DisruptHist.Count(), met.DisruptHist.Quantile(0.5), met.DisruptHist.Quantile(0.99))
	}
}
