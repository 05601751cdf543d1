package workload

import (
	"testing"

	"timekeeping/internal/trace"
)

// benchBenches are the eight benches the repository benchmark runs.
var benchBenches = []string{"eon", "twolf", "vpr", "ammp", "swim", "mcf", "facerec", "gcc"}

// TestBlocksBoundsFootprint: the distinct blocks of the first 750K
// references (the default run's warm-up plus measurement), counted with a
// Go map, never exceed Spec.Blocks, for every profile at seeds 1 and 2 and
// at 16-, 32- and 64-byte blocks. At the L1's 32-byte blocks the bound is
// within 1.05× of the count for the benchmark's eight benches, so the
// tables a run sizes from it are not oversized there. Elsewhere it can be
// loose: lucas's 64-byte stride touches every other 32-byte block of its
// array (1.93×), and mgrid's second array does the same (1.32×). Both
// touch fewer than the 12,288 blocks a table's first 16K slots hold at
// this length, so their tables never grow and the looseness costs
// nothing.
func TestBlocksBoundsFootprint(t *testing.T) {
	const refs = 750_000
	tight := map[string]bool{}
	for _, name := range benchBenches {
		tight[name] = true
	}
	for _, name := range Names() {
		spec := MustProfile(name)
		for _, seed := range []uint64{1, 2} {
			// Count 16-byte blocks, then fold them into the wider ones.
			seen := make(map[uint64]struct{}, spec.Blocks(16))
			s := spec.Stream(seed)
			var r trace.Ref
			for i := 0; i < refs; i++ {
				s.Next(&r)
				seen[r.Addr/16] = struct{}{}
			}
			for _, bytes := range []uint64{16, 32, 64} {
				blocks := make(map[uint64]struct{}, len(seen))
				for b := range seen {
					blocks[b/(bytes/16)] = struct{}{}
				}
				got, bound := uint64(len(blocks)), spec.Blocks(bytes)
				if got > bound {
					t.Errorf("%s seed %d: %d distinct %d-byte blocks, more than Blocks' %d",
						name, seed, got, bytes, bound)
				}
				if ratio := float64(bound) / float64(got); bytes == 32 && tight[name] && ratio > 1.05 {
					t.Errorf("%s seed %d: Blocks(32) = %d is %.3f× the %d blocks touched, want at most 1.05×",
						name, seed, bound, ratio, got)
				}
			}
		}
	}
}
