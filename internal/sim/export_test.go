package sim

import "context"

// RunReference is Run on the reference loop (cpu.Model driving
// hier.Hierarchy, with core.Tracker): the executable specification the
// engine differential gate, the fuzzers, the event differential test and
// the core-throughput benchmark compare the engine against. It captures
// events and spans but never audits.
func RunReference(ctx context.Context, s Spec) (Result, error) {
	return run(ctx, s, runReference)
}

// RunPhase is runPhase: one simulation window, with an oracle divergence
// raised while stepping returned as its error.
var RunPhase = runPhase
