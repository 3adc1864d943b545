// Clock synchronization — the paper's third motivating application (citing
// Azevedo and Blough). A master broadcasts a time beacon; every node adjusts
// its clock on arrival. The quality of synchronization is bounded by the
// *skew*: the spread between the first and the last beacon arrival. A
// tree-based multicast delivers the beacon in one worm, so the skew is just
// the depth spread of the distribution tree; software multicast adds a full
// startup per forwarding round.
//
// The example broadcasts beacons from the master on a 128-node irregular
// network under background unicast traffic and reports arrival skew
// percentiles for SPAM versus binomial-tree software broadcast.
package main

import (
	"fmt"
	"log"

	spamnet "repro"
	"repro/internal/baseline"
	"repro/internal/stats"
	"repro/internal/workload"
)

const beacons = 20

func main() {
	sys, err := spamnet.NewLattice(128, spamnet.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	hwSkew, hwLat := measure(sys, true)
	swSkew, swLat := measure(sys, false)

	fmt.Println("clock-sync beacon broadcast on a 128-node irregular network")
	fmt.Printf("%d beacons under light background unicast traffic\n\n", beacons)
	fmt.Printf("%-24s %12s %12s %14s\n", "broadcast mechanism", "skew p50(us)", "skew p95(us)", "latency p50(us)")
	fmt.Printf("%-24s %12.2f %12.2f %14.2f\n", "SPAM multicast",
		hwSkew.Percentile(50), hwSkew.Percentile(95), hwLat.Percentile(50))
	fmt.Printf("%-24s %12.2f %12.2f %14.2f\n", "unicast binomial tree",
		swSkew.Percentile(50), swSkew.Percentile(95), swLat.Percentile(50))
	fmt.Printf("\nmedian skew improvement: %.1fx\n",
		swSkew.Percentile(50)/hwSkew.Percentile(50))
}

// measure runs one trial of beacons every 200 µs and returns (skew,
// latency) samples in microseconds.
func measure(sys *spamnet.System, hw bool) (*stats.Sample, *stats.Sample) {
	r, err := workload.NewRunner(sys.Router(), sys.SimConfig())
	if err != nil {
		log.Fatal(err)
	}
	r.MaxSimTimeNs = sys.MaxSimTimeNs()
	bc := beaconTrial{hw: hw, skews: &stats.Sample{}, lats: &stats.Sample{}}
	if err := r.Trial(bc, 11); err != nil {
		log.Fatal(err)
	}
	return bc.skews, bc.lats
}

// beaconTrial is the trial's workload: light background unicasts plus the
// master's beacons, broadcast as one SPAM worm each (hw) or by a unicast
// binomial tree.
type beaconTrial struct {
	hw          bool
	skews, lats *stats.Sample
}

func (bc beaconTrial) Name() string { return "clocksync" }

func (bc beaconTrial) Generate(g *workload.Gen) error {
	if err := (workload.Mixed{RatePerProcPerUs: 0.002, Messages: 800}).Generate(g); err != nil {
		return err
	}
	s := g.Sim
	master := g.Proc(0)
	var slaves []spamnet.NodeID
	for i := 1; i < g.NumProcs(); i++ {
		slaves = append(slaves, g.Proc(i))
	}
	for b := 0; b < beacons; b++ {
		t0 := int64(b) * 200_000
		if bc.hw {
			w, err := s.Submit(t0, master, slaves)
			if err != nil {
				return err
			}
			w.OnComplete = func(w *spamnet.Message, _ int64) {
				first, last := w.ArrivalNs[0], w.ArrivalNs[0]
				for _, a := range w.ArrivalNs {
					if a < first {
						first = a
					}
					if a > last {
						last = a
					}
				}
				bc.skews.Add(float64(last-first) / 1000)
				bc.lats.Add(float64(w.Latency()) / 1000)
			}
		} else {
			run, err := baseline.Start(s, baseline.BinomialTree, t0, master, slaves)
			if err != nil {
				return err
			}
			run.OnComplete(func(rn *baseline.Run) {
				first, last := rn.DoneNs, int64(0)
				for _, at := range rn.DeliveredNs {
					if at < first {
						first = at
					}
					if at > last {
						last = at
					}
				}
				bc.skews.Add(float64(last-first) / 1000)
				bc.lats.Add(float64(rn.Latency()) / 1000)
			})
		}
	}
	return nil
}
