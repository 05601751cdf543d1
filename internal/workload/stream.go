package workload

import (
	"cmp"
	"fmt"
	"slices"

	"timekeeping/internal/rng"
	"timekeeping/internal/trace"
)

// BurstUnit is the number of references one unit of component Weight
// contributes per scheduling round. Bursts are what create generational
// structure: while one component bursts, the others' cache lines sit idle,
// accumulating dead time.
const BurstUnit = 256

// Spec is a complete synthetic benchmark: a named mix of components plus
// the seed that fixes its random choices (the pointer-chase permutation,
// gap jitter, random probes). Two streams built from the same Spec and seed
// produce identical reference sequences, which is what lets experiments
// compare hardware configurations on exactly the same "program".
type Spec struct {
	Name       string
	Components []ComponentSpec

	// Seed is mixed into every stream's PRNG so each benchmark has its
	// own stable stream identity.
	Seed uint64
}

// Validate checks that the Spec is well-formed.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: spec has no name")
	}
	if len(s.Components) == 0 {
		return fmt.Errorf("workload %s: no components", s.Name)
	}
	for i, c := range s.Components {
		if c.Weight < 1 {
			return fmt.Errorf("workload %s component %d: weight %d < 1", s.Name, i, c.Weight)
		}
		switch c.Kind {
		case PatSeq:
			if c.Bytes == 0 {
				return fmt.Errorf("workload %s component %d: seq needs Bytes", s.Name, i)
			}
		case PatTriad:
			if c.Bytes == 0 {
				return fmt.Errorf("workload %s component %d: triad needs Bytes", s.Name, i)
			}
		case PatRand:
			if c.Bytes == 0 {
				return fmt.Errorf("workload %s component %d: rand needs Bytes", s.Name, i)
			}
		case PatChase:
			if c.Nodes < 2 {
				return fmt.Errorf("workload %s component %d: chase needs Nodes >= 2", s.Name, i)
			}
		case PatConflict:
			if c.Ways < 2 || c.Ways > 4 || c.Sets < 1 || c.CacheBytes == 0 {
				return fmt.Errorf("workload %s component %d: conflict needs 2<=Ways<=4, Sets>=1, CacheBytes", s.Name, i)
			}
			if c.WayPool != 0 && c.WayPool < c.Ways {
				return fmt.Errorf("workload %s component %d: WayPool %d < Ways %d", s.Name, i, c.WayPool, c.Ways)
			}
		default:
			return fmt.Errorf("workload %s component %d: unknown kind %d", s.Name, i, c.Kind)
		}
	}
	return nil
}

// Blocks returns how many blocks of blockBytes bytes the benchmark's
// address regions cover: the union of every component's regions,
// software-prefetch targets included, counted in blocks. No stream built
// from the Spec, at any seed or length, touches more distinct blocks. The
// count is exact once a stream has touched every block of its regions;
// an array stride or a chase node wider than a block leaves blocks that
// no stream touches, and makes it loose. blockBytes must be positive.
func (s *Spec) Blocks(blockBytes uint64) uint64 {
	var regions []region
	for _, c := range s.Components {
		regions = c.regions(regions)
	}
	slices.SortFunc(regions, func(a, b region) int { return cmp.Compare(a.lo, b.lo) })
	var blocks, next uint64 // next is the first block past those counted
	for _, r := range regions {
		lo, hi := max(r.lo/blockBytes, next), r.hi/blockBytes
		if lo <= hi {
			blocks += hi - lo + 1
			next = hi + 1
		}
	}
	return blocks
}

// Stream returns an infinite reference stream for the benchmark. The seed
// argument is mixed with the Spec's own seed; experiments that compare
// hardware configurations must pass the same seed to each.
func (s *Spec) Stream(seed uint64) trace.Stream {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	rnd := rng.New(s.Seed*0x9e3779b97f4a7c15 + seed)
	st := &stream{rnd: rnd}
	for i, c := range s.Components {
		st.patterns = append(st.patterns, newPattern(c, i, rnd))
		st.bursts = append(st.bursts, c.Weight*BurstUnit)
	}
	st.left = st.bursts[0]
	return st
}

// stream interleaves component bursts in round-robin order.
type stream struct {
	rnd      *rng.Source
	patterns []*pattern
	bursts   []int
	cur      int
	left     int
}

// Copy implements trace.Copier. It copies the generator, the burst cursor
// and each pattern's cursors; the burst lengths, chase permutations and
// conflict set orders are never written after construction, so the copy
// shares them.
func (s *stream) Copy() (trace.Stream, bool) {
	c := *s
	rnd := *s.rnd
	c.rnd = &rnd
	c.patterns = make([]*pattern, len(s.patterns))
	for i, p := range s.patterns {
		q := *p
		c.patterns[i] = &q
	}
	return &c, true
}

// Next implements trace.Stream; workload streams never end.
func (s *stream) Next(r *trace.Ref) bool {
	p := s.patterns[s.cur]
	p.next(r, s.rnd)
	s.left--
	if s.left <= 0 {
		s.cur++
		if s.cur == len(s.patterns) {
			s.cur = 0
		}
		// Jitter the next burst by up to 1/8 of its length so phase
		// boundaries are not perfectly periodic.
		b := s.bursts[s.cur]
		jitter := b / 8
		if jitter > 0 {
			b += s.rnd.Intn(2*jitter+1) - jitter
		}
		s.left = b
	}
	return true
}
