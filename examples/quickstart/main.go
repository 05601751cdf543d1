// Quickstart: simulate a synthetic SPEC2000 analog on the Table 1 machine
// with the timekeeping tracker attached, and print the generational
// statistics the paper is built on.
package main

import (
	"context"
	"fmt"
	"log"

	"timekeeping/internal/sim"
	"timekeeping/internal/workload"
)

func main() {
	// The simulated machine of Table 1: 32 KB direct-mapped L1D, 1 MB
	// 4-way L2, 70-cycle memory, 8-wide core with a 128-entry window. A
	// run warms the caches, resets the statistics, then measures.
	opt := sim.Default()

	// The timekeeping tracker is the paper's per-cache-line counter
	// hardware: it watches every L1 access and measures live times, dead
	// times, access intervals and reload intervals.
	opt.Track = true

	spec := workload.MustProfile("gcc")
	res, err := sim.Run(context.Background(), sim.Spec{Workload: spec, Opts: opt})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("benchmark    %s\n", res.Bench)
	fmt.Printf("instructions %d\n", res.CPU.Insts)
	fmt.Printf("cycles       %d\n", res.CPU.Cycles)
	fmt.Printf("IPC          %.3f\n", res.CPU.IPC)

	s := res.Hier
	fmt.Printf("L1 miss rate %.1f%% (cold %d, conflict %d, capacity %d)\n",
		100*s.MissRate(), s.ColdMisses, s.ConflMiss, s.CapMiss)

	m := res.Tracker
	fmt.Printf("generations  %d\n", m.Generations)
	fmt.Printf("live times   mean %.0f cycles, %.0f%% at most 100 cycles\n",
		m.Live.Mean(), 100*m.Live.FracBelow(100))
	fmt.Printf("dead times   mean %.0f cycles, %.0f%% at most 100 cycles\n",
		m.Dead.Mean(), 100*m.Dead.FracBelow(100))
	fmt.Printf("reload ivals mean %.0f cycles\n", m.Reload.Mean())

	// The paper's observation in one line: dead times dwarf live times,
	// which is the window a timekeeping prefetcher exploits.
	fmt.Printf("\ndead/live ratio: %.1fx\n", m.Dead.Mean()/m.Live.Mean())
}
