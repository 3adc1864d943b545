// Package experiment contains the drivers that regenerate every figure and
// in-text result of the paper's Section 4, plus the ablations suggested by
// its future-work section. RunDriver is the one entry point: each of the 14
// registered drivers is a function of DriverOpts alone (trials, messages,
// workers, seed, simulator configuration and the fault sweep's repair
// time), with the paper's parameters as constants beside its code. A driver
// builds its networks, runs a fixed number of replications in parallel (one
// deterministic simulator per goroutine) and aggregates them with 95%
// confidence intervals into a Table, plus Series for the curves.
package experiment
