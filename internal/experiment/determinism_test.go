package experiment

import (
	"reflect"
	"runtime"
	"testing"
)

// TestSweepSerialVsParallelGolden is the harness determinism golden: the
// same seeded drivers run serially (Workers=1) and through the concurrent
// worker pool at 4 and 8 workers, each at GOMAXPROCS 1, 4 and 8, must
// produce bit-identical results.
// This holds because every job owns its random stream, its reusable
// simulator cache and its streaming summary, and results are merged by job
// index rather than completion order — any shared mutable state or
// completion-order dependence in the harness would show up here (and under
// the race-enabled CI job) as a diff.
func TestSweepSerialVsParallelGolden(t *testing.T) {
	fig2Opts := DriverOpts{Trials: 2, Seed: 1998, Sim: smallSim()}
	fig3Opts := DriverOpts{Messages: 30, Seed: 6, Sim: smallSim()}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var golden2, golden3 *DriverResult
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 4, 8} {
			fig2Opts.Workers, fig3Opts.Workers = workers, workers
			r2, r3 := run(t, fig2, fig2Opts), run(t, fig3, fig3Opts)
			if golden2 == nil {
				golden2, golden3 = r2, r3
				continue
			}
			if !reflect.DeepEqual(r2, golden2) {
				t.Fatalf("fig2 diverged at procs=%d workers=%d:\n got %+v\nwant %+v", procs, workers, r2.Series, golden2.Series)
			}
			if !reflect.DeepEqual(r3, golden3) {
				t.Fatalf("fig3 diverged at procs=%d workers=%d:\n got %+v\nwant %+v", procs, workers, r3.Series, golden3.Series)
			}
		}
	}
}
