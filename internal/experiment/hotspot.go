package experiment

import (
	"repro/internal/updown"
	"repro/internal/workload"
)

// rootShareDests are the destination counts the root hot-spot driver
// sweeps.
var rootShareDests = []int{1, 2, 4, 8, 16, 32, 64}

// rootShare quantifies the paper's Section 5 observation: "As the number of
// destinations increases, the probability that the worm must pass through
// the root of the underlying spanning tree increases, resulting in
// potential hot-spot effects at the root." For each destination count it
// measures the percentage of multicasts whose worm traverses the root
// switch.
func rootShare(o DriverOpts) (*DriverResult, error) {
	sys, err := lattice(ablationNodes, o.Seed, updown.RootMinID)
	if err != nil {
		return nil, err
	}
	series, err := sweepGrid([]string{"worms through root (%)"}, floats(rootShareDests), o.Workers, func(_, di int) job {
		d := rootShareDests[di]
		return sweepSpec{
			systems: []*workload.System{sys},
			cfg:     o.Sim,
			seed:    o.Seed ^ uint64(d)<<6 ^ 0x707,
			trials:  o.Trials,
			run: func(t *sweepTrial) error {
				if _, err := t.multicast(d); err != nil {
					return err
				}
				if t.Sim.NodeThroughLoad(sys.Lab.Root) > 0 {
					t.AddUs(100)
				} else {
					t.AddUs(0)
				}
				return nil
			},
		}.job()
	})
	if err != nil {
		return nil, err
	}
	series[0].Unit = "%"
	return seriesResult("Root hot-spot: share of worms through the root vs destinations (Section 5)",
		"destinations", series, "destinations", "% of worms through root"), nil
}

// headerAddrsPerFlit are the header encodings the header ablation sweeps,
// in destination addresses per header flit (0 = the paper's single header
// flit).
var headerAddrsPerFlit = []int{0, 16, 8, 4}

// headerAblation measures the latency cost of realistic destination-set
// encoding in the header (extra address flits) against the paper's
// single-header-flit abstraction, for a broadcast.
func headerAblation(o DriverOpts) (*DriverResult, error) {
	sys, err := lattice(ablationNodes, o.Seed, updown.RootMinID)
	if err != nil {
		return nil, err
	}
	series, err := sweepGrid([]string{"broadcast latency"}, floats(headerAddrsPerFlit), o.Workers, func(_, ai int) job {
		a := headerAddrsPerFlit[ai]
		simCfg := o.Sim
		simCfg.AddrsPerHeaderFlit = a
		return sweepSpec{
			systems: []*workload.System{sys},
			cfg:     simCfg,
			seed:    o.Seed ^ uint64(a)<<5 ^ 0x909,
			trials:  o.Trials,
			run: func(t *sweepTrial) error {
				w, err := t.multicast(sys.Net.NumProcs - 1)
				if err != nil {
					return err
				}
				t.AddNs(w.Latency())
				return nil
			},
		}.job()
	})
	if err != nil {
		return nil, err
	}
	return seriesResult("Header-encoding cost: broadcast latency vs destination addresses per header flit (0 = ideal)",
		"addrs/flit", series, "addresses per header flit", "latency (us)"), nil
}
