package main

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/campaign"
	"repro/internal/experiment"
)

func TestStreamSameSeedSameRequests(t *testing.T) {
	for _, w := range []string{"serve-paper", "serve-zoo"} {
		a, err := newStream(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newStream(w, 7)
		c, _ := newStream(w, 8)
		differs := false
		for pos := 0; pos < 3*a.passLen; pos++ {
			ra, rb, rc := a.at(pos), b.at(pos), c.at(pos)
			if !bytes.Equal(ra.Body, rb.Body) {
				t.Fatalf("%s position %d: same seed, different requests:\n%s\n%s", w, pos, ra.Body, rb.Body)
			}
			if !bytes.Equal(ra.Body, rc.Body) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generate the same stream", w)
		}
	}
	if !bytes.Equal(fillRequests(3)[0].Body, fillRequests(3)[0].Body) || bytes.Equal(fillRequests(3)[0].Body, fillRequests(4)[0].Body) {
		t.Error("fill requests do not follow the seed")
	}
}

// Every pass must have the same composition, so that runs of different
// seeds do the same kind of work.
func TestStreamPassComposition(t *testing.T) {
	paper, _ := newStream("serve-paper", 5)
	for pass := 0; pass < 4; pass++ {
		points := map[[2]float64]bool{}
		for k := 0; k < paper.passLen; k++ {
			r := paper.at(pass*paper.passLen + k)
			points[[2]float64{r.Run.Params.RatePerProcPerUs, float64(r.Run.Params.MulticastDests)}] = true
		}
		if len(points) != len(paperRates)*len(paperDests) {
			t.Errorf("serve-paper pass %d covers %d of %d Fig. 3 points", pass, len(points), len(paperRates)*len(paperDests))
		}
	}
	zoo, _ := newStream("serve-zoo", 5)
	keysSeen := map[string]int{}
	for pass := 0; pass < 2*zooVariants; pass++ {
		combos := map[string]bool{}
		for k := 0; k < zoo.passLen; k += 3 {
			r := zoo.at(pass*zoo.passLen + k)
			combos[r.Combo] = true
			keysSeen[r.SysKey]++
		}
		if len(combos) != len(zooCatalog) {
			t.Errorf("serve-zoo pass %d builds %d of %d catalog systems", pass, len(combos), len(zooCatalog))
		}
	}
	// Three traffic-seed variants: each key recurs once per three passes.
	for key, n := range keysSeen {
		if n != 2 {
			t.Errorf("serve-zoo key %s is new %d times in %d passes, want 2", key, n, 2*zooVariants)
		}
	}
	// The repeats name the systems zooRepeatLags new systems back.
	for i := zooRepeatLags[1]; i < 4*len(zooCatalog); i++ {
		for r, lag := range zooRepeatLags {
			if got, want := zoo.at(3*i+1+r).SysKey, zoo.at(3*(i-lag)).SysKey; got != want {
				t.Fatalf("position %d repeats %s, want %s", 3*i+1+r, got, want)
			}
		}
	}
}

// The replay does not repeat serve's clamps, so the streams must stay
// inside them.
func TestStreamWithinServeClamps(t *testing.T) {
	var reqs []request
	for _, w := range []string{"serve-paper", "serve-zoo"} {
		st, _ := newStream(w, 1)
		for pos := 0; pos < 6*st.passLen; pos++ {
			reqs = append(reqs, st.at(pos))
		}
	}
	reqs = append(reqs, fillRequests(1)...)
	for _, r := range reqs {
		p := r.Run.Params
		if r.Run.Trials < 1 || r.Run.Trials > 64 || p.Messages > 20000 || p.Rounds != 0 || p.Sources != 0 || p.Stages != 0 || p.Trace != "" {
			t.Fatalf("request %s is outside serve's default clamps", r.Body)
		}
	}
}

func TestPaperManifestKeepsEveryDriverAndCell(t *testing.T) {
	m, err := paperManifest()
	if err != nil {
		t.Fatal(err)
	}
	builtin, _ := campaign.Builtin("paper")
	var drivers []string
	for _, e := range m.Experiments {
		drivers = append(drivers, e.Driver)
	}
	if !slices.Equal(drivers, experiment.Drivers()) || !slices.Equal(drivers, driverNames) {
		t.Errorf("manifest drivers %v, registered %v, benchmark metrics %v", drivers, experiment.Drivers(), driverNames)
	}
	if got, want := manifestCells(m), manifestCells(builtin); !slices.Equal(got, want) {
		t.Errorf("benchmark grid has %d cells, builtin %d", len(got), len(want))
	}
	if n := builtin.NumCells(); len(manifestCells(m)) != n {
		t.Errorf("manifestCells expands %d cells, campaign %d", len(manifestCells(m)), n)
	}
}
