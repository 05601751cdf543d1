// Package workload generates the deterministic synthetic memory-reference
// streams that stand in for the paper's SPEC CPU2000 runs.
//
// Each of the paper's 26 benchmarks is modelled as a named Spec: a weighted,
// burst-interleaved mix of primitive access patterns (sequential and triad
// array streams, random working-set probes, dependent pointer chases, and
// set-conflict loops). The primitives were chosen so that the mix can
// reproduce the generational signatures the paper measures: streaming loops
// give short live times, long dead times and long reload intervals
// (capacity behaviour); conflict loops give zero live times and short dead
// times and reload intervals (conflict behaviour); pointer chases give
// dependent, serialised misses whose addresses repeat across traversals
// (predictable by a correlation table, with table pressure proportional to
// the footprint); random probes give unpredictable addresses.
package workload

import (
	"timekeeping/internal/rng"
	"timekeeping/internal/trace"
)

// PatternKind identifies a primitive access pattern.
type PatternKind uint8

// Primitive pattern kinds.
const (
	// PatSeq walks one array region sequentially with a fixed stride,
	// wrapping at the end — a streaming loop nest.
	PatSeq PatternKind = iota
	// PatTriad walks three regions in lockstep (a[i], b[i] -> c[i]), the
	// paper's own example of the access structure that benefits from
	// constructive aliasing in the correlation table.
	PatTriad
	// PatRand probes uniformly random block addresses inside a region —
	// hash-table/branchy integer code; addresses do not repeat in a
	// learnable order.
	PatRand
	// PatChase follows a fixed random permutation cycle over a set of
	// nodes; every access depends on the previous one (pointer chasing).
	// The traversal order is identical every cycle, so a large enough
	// correlation table can learn it perfectly.
	PatChase
	// PatConflict ping-pongs between Ways addresses that map to the same
	// cache set (spaced CacheBytes apart), dwelling on a set for PerSet
	// references before moving on — a mapping-conflict loop.
	PatConflict
)

// String returns the pattern kind's name.
func (k PatternKind) String() string {
	switch k {
	case PatSeq:
		return "seq"
	case PatTriad:
		return "triad"
	case PatRand:
		return "rand"
	case PatChase:
		return "chase"
	case PatConflict:
		return "conflict"
	default:
		return "invalid"
	}
}

// ComponentSpec describes one primitive pattern inside a benchmark mix.
// Exactly which fields matter depends on Kind; unused fields are ignored.
type ComponentSpec struct {
	Kind PatternKind

	// Weight sets the component's share of references via its burst
	// length: the scheduler cycles through components, emitting
	// Weight*BurstUnit references from each. Must be >= 1.
	Weight int

	// Base is the starting byte address of the component's region.
	// Profiles space regions far apart so components do not overlap.
	Base uint64

	// Bytes is the region size (Seq, Triad: per array; Rand: whole
	// region).
	Bytes uint64

	// Stride is the access stride in bytes for Seq/Triad (default 8).
	Stride uint64

	// Nodes and NodeSize size a pointer chase (Chase); Touches is the
	// number of accesses per node visit (default 1) — real list nodes
	// are read for the next pointer and again for their payload, so a
	// visited block usually has a short non-zero live time.
	Nodes    int
	NodeSize uint64
	Touches  int

	// PCVar is the probability that an access comes from a variant PC
	// (data-dependent control flow inside the loop body). Real loop
	// bodies branch, which is what makes PC-trace signatures (DBCP)
	// fragile while leaving address-history predictors untouched.
	PCVar float64

	// DepFrac marks this fraction of the component's references as
	// dependent on the previous load (address or value dependences in
	// the loop body), which bounds memory-level parallelism and exposes
	// miss latency the way real codes do. Chase references are always
	// dependent regardless.
	DepFrac float64

	// RunLen gives PatRand intra-block spatial locality: each visit to a
	// random block issues ~RunLen accesses to consecutive words within
	// it before moving on (real table/hash code touches several fields
	// per record). 0 means the default of 3; 1 reproduces single-touch
	// behaviour.
	RunLen int

	// Ways, Sets, PerSet and CacheBytes shape a conflict loop (Conflict):
	// Ways conflicting tags per set, Sets distinct sets touched, PerSet
	// consecutive references spent ping-ponging in one set before moving
	// on, and CacheBytes the mapping distance (the target cache's size).
	Ways       int
	Sets       int
	PerSet     int
	CacheBytes uint64

	// RandomSets makes the conflict loop visit sets in random order,
	// destroying per-frame miss-history predictability (twolf, parser).
	RandomSets bool

	// WayPool, when larger than Ways, makes each dwell ping-pong between
	// Ways tags drawn at random from a pool of WayPool conflicting tags,
	// so the same set conflicts on different tag pairs over time — real
	// mapping conflicts involve whichever structures happen to collide,
	// which is why a correlation table cannot simply learn them away.
	WayPool int

	// GapMean is the mean number of non-memory instructions between
	// references (geometric jitter around it).
	GapMean float64

	// Bursty alternates between gap 0 and 4*GapMean phases, modelling
	// bursty codes whose prefetches overflow the request queue (art).
	Bursty bool

	// StoreFrac is the fraction of references that are stores.
	StoreFrac float64

	// PrefetchEvery, when nonzero, emits a software-prefetch reference
	// every PrefetchEvery references, PrefetchAhead bytes ahead of the
	// stream (Seq/Triad only) — the compiler prefetching the paper's
	// peak-flag binaries contain.
	PrefetchEvery int
	PrefetchAhead uint64
}

// blockBytes is the granularity patterns use when they need block-sized
// steps: the L2 block size, so consecutive conflict-loop sets differ in
// both the L1 and the L2.
const blockBytes = 64

// triadSkew offsets the three triad lanes so equal indices fall in
// different cache sets (11 KB + one block, deliberately not a multiple of
// any cache's way size).
const triadSkew = 11*1024 + 64

// region is a span of byte addresses, lo to hi inclusive.
type region struct{ lo, hi uint64 }

// regions appends to out the address regions the component's references
// fall in, by the address rules of pattern.next: every address next can
// produce lies in one of them.
func (c ComponentSpec) regions(out []region) []region {
	stride := c.Stride
	if stride == 0 {
		stride = 8
	}
	// array appends an array walk of n elements from base, and the
	// software prefetches that run PrefetchAhead bytes ahead of it.
	array := func(base, n uint64) {
		if n == 0 {
			return
		}
		last := base + (n-1)*stride
		out = append(out, region{base, last})
		if c.PrefetchEvery > 0 {
			out = append(out, region{base + c.PrefetchAhead, last + c.PrefetchAhead})
		}
	}
	switch c.Kind {
	case PatSeq:
		array(c.Base, c.Bytes/stride)
	case PatTriad:
		for lane := uint64(0); lane < 3; lane++ {
			array(c.Base+lane*(2*c.Bytes+triadSkew), c.Bytes/stride)
		}
	case PatRand:
		out = append(out, region{c.Base, c.Base + c.Bytes - 1})
	case PatChase:
		size := c.NodeSize
		if size == 0 {
			size = 32
		}
		last := c.Base + uint64(c.Nodes-1)*size
		if c.Touches > 1 {
			last += 8 // the payload touch
		}
		out = append(out, region{c.Base, last})
	case PatConflict:
		// One address per tag and set: sets are a block apart, so a
		// smaller block would leave gaps in a region spanning them.
		for w := 0; w < max(c.Ways, c.WayPool); w++ {
			for set := 0; set < c.Sets; set++ {
				a := c.Base + uint64(w)*c.CacheBytes + uint64(set)*blockBytes
				out = append(out, region{a, a})
			}
		}
	}
	return out
}

// pattern is the run-time state of one component.
type pattern struct {
	spec    ComponentSpec
	pcBase  uint32
	pos     uint64 // Seq/Triad element index; Conflict step counter
	lane    int    // Triad lane (0=a load, 1=b load, 2=c store)
	perm    []uint32
	permPos int
	setSeq  []uint32 // Conflict set visit order when RandomSets
	burstly bool     // current Bursty phase has gap 0
	phase   int      // counts refs to flip Bursty phases
	emitted int      // refs since last software prefetch
	runAddr uint64   // Rand: next address in the current intra-block run
	runLeft int      // Rand: accesses left in the current run

	dwellSet  uint64    // Conflict: current set
	dwellWays [4]uint64 // Conflict: tags in play this dwell
}

func newPattern(spec ComponentSpec, idx int, rnd *rng.Source) *pattern {
	p := &pattern{spec: spec, pcBase: 0x40000000 + uint32(idx)*0x1000}
	switch spec.Kind {
	case PatChase:
		n := spec.Nodes
		perm := make([]int, n)
		rnd.Perm(perm)
		// Turn the permutation into a single cycle (successor array) so
		// the traversal visits every node once per lap in a fixed order.
		p.perm = make([]uint32, n)
		for i := 0; i < n; i++ {
			p.perm[i] = uint32(perm[i])
		}
	case PatConflict:
		if spec.RandomSets {
			seq := make([]int, spec.Sets)
			rnd.Perm(seq)
			p.setSeq = make([]uint32, spec.Sets)
			for i, s := range seq {
				p.setSeq[i] = uint32(s)
			}
		}
	}
	return p
}

// next produces the component's next reference.
func (p *pattern) next(r *trace.Ref, rnd *rng.Source) {
	s := &p.spec
	r.DepPrev = s.DepFrac > 0 && rnd.Bool(s.DepFrac)
	r.Kind = trace.Load
	if s.StoreFrac > 0 && rnd.Bool(s.StoreFrac) {
		r.Kind = trace.Store
	}
	r.Gap = p.gap(rnd)

	switch s.Kind {
	case PatSeq:
		stride := s.Stride
		if stride == 0 {
			stride = 8
		}
		n := s.Bytes / stride
		if p.maybeSWPrefetch(r, s.Base+(p.pos%n)*stride) {
			return
		}
		r.Addr = s.Base + (p.pos%n)*stride
		r.PC = p.pcBase + uint32(p.pos%4)*4
		if s.PCVar > 0 && rnd.Bool(s.PCVar) {
			r.PC += 0x100 + uint32(rnd.Intn(3))*16
		}
		// Conditional re-use of the current element: data-dependent
		// control flow varies how many times a block is touched, which
		// perturbs reference-trace signatures (DBCP's fragility) while a
		// miss-address history barely notices.
		if s.PCVar > 0 && rnd.Bool(s.PCVar*0.5) {
			return
		}
		p.pos++

	case PatTriad:
		stride := s.Stride
		if stride == 0 {
			stride = 8
		}
		n := s.Bytes / stride
		i := p.pos % n
		// Regions a, b, c are spaced 2x apart so they never overlap; the
		// extra skew keeps a[i], b[i], c[i] out of the same cache set
		// (real allocators never place arrays exact cache-size multiples
		// apart, and without the skew every triad access would be a
		// mapping conflict rather than the capacity stream it models).
		base := s.Base + uint64(p.lane)*(2*s.Bytes+triadSkew)
		if p.lane == 2 {
			r.Kind = trace.Store
		} else {
			r.Kind = trace.Load
		}
		if p.maybeSWPrefetch(r, base+i*stride) {
			return
		}
		r.Addr = base + i*stride
		r.PC = p.pcBase + uint32(p.lane)*4
		if s.PCVar > 0 && rnd.Bool(s.PCVar) {
			r.PC += 0x100 + uint32(rnd.Intn(3))*16
		}
		p.lane++
		if p.lane == 3 {
			p.lane = 0
			p.pos++
		}

	case PatRand:
		if p.runLeft == 0 {
			blocks := s.Bytes / blockBytes
			if blocks == 0 {
				blocks = 1
			}
			run := s.RunLen
			if run == 0 {
				run = 3
			}
			p.runAddr = rnd.Uint64n(blocks) * blockBytes
			p.runLeft = 1 + rnd.Intn(2*run-1) // mean ~run accesses
		}
		r.Addr = s.Base + p.runAddr%s.Bytes // runs wrap at the region end
		p.runAddr += 8
		p.runLeft--
		r.PC = p.pcBase + uint32(rnd.Intn(8))*4

	case PatChase:
		if p.runLeft > 0 {
			// Payload touch of the node visited by the previous access.
			p.runLeft--
			r.Addr = p.runAddr + 8
			r.PC = p.pcBase + 4
			r.DepPrev = false
			return
		}
		node := p.perm[p.permPos]
		p.permPos++
		if p.permPos == len(p.perm) {
			p.permPos = 0
		}
		size := s.NodeSize
		if size == 0 {
			size = 32
		}
		r.Addr = s.Base + uint64(node)*size
		r.PC = p.pcBase
		r.DepPrev = true
		if s.Touches > 1 {
			p.runAddr = r.Addr
			p.runLeft = s.Touches - 1
		}

	case PatConflict:
		perSet := s.PerSet
		if perSet <= 0 {
			perSet = 8
		}
		step := p.pos
		p.pos++
		if step%uint64(perSet) == 0 {
			// New dwell: pick the set and, with a way pool, the pair of
			// conflicting tags to ping-pong between.
			dwell := step / uint64(perSet)
			p.dwellSet = dwell % uint64(s.Sets)
			if p.setSeq != nil {
				p.dwellSet = uint64(p.setSeq[p.dwellSet])
			}
			for i := range p.dwellWays {
				p.dwellWays[i] = uint64(i)
			}
			if s.WayPool > s.Ways {
				used := make(map[int]bool, s.Ways)
				for i := 0; i < s.Ways; i++ {
					w := rnd.Intn(s.WayPool)
					for used[w] {
						w = rnd.Intn(s.WayPool)
					}
					used[w] = true
					p.dwellWays[i] = uint64(w)
				}
			}
		}
		way := p.dwellWays[step%uint64(s.Ways)]
		r.Addr = s.Base + way*s.CacheBytes + p.dwellSet*blockBytes
		r.PC = p.pcBase + uint32(way)*4
	}
}

// maybeSWPrefetch emits a software prefetch instead of the stream's own
// reference when the component's prefetch cadence says so. Returns true if
// it substituted a prefetch (the stream position does not advance).
func (p *pattern) maybeSWPrefetch(r *trace.Ref, streamAddr uint64) bool {
	s := &p.spec
	if s.PrefetchEvery == 0 {
		return false
	}
	p.emitted++
	if p.emitted < s.PrefetchEvery {
		return false
	}
	p.emitted = 0
	r.Kind = trace.SWPrefetch
	r.Addr = streamAddr + s.PrefetchAhead
	r.PC = p.pcBase + 0x100
	r.DepPrev = false
	return true
}

// gap draws the non-memory instruction gap preceding a reference.
func (p *pattern) gap(rnd *rng.Source) uint32 {
	s := &p.spec
	mean := s.GapMean
	if s.Bursty {
		p.phase++
		if p.phase%64 < 48 {
			mean = 0
		} else {
			mean *= 4
		}
	}
	return uint32(rnd.Geometric(mean))
}
