// Package phase implements phase-aware representative-interval selection
// for sampled simulation — the trace-driven analog of SimPoint's basic
// block vector (BBV) clustering, following "Improving the
// Representativeness of Simulation Intervals for the Cache Memory System"
// (see PAPERS.md): interval *choice*, not just interval *count*, drives a
// sampled estimate's accuracy.
//
// The pipeline has three stages, each deterministic for a given seed:
//
//  1. Signatures: a cheap profiling walk over the reference stream divides
//     the measure span into equal intervals and summarises each as a
//     region-footprint vector — the fraction of the interval's references
//     touching each aligned memory region. Since a trace has no basic
//     blocks, the region vector plays the BBV's role: two intervals with
//     similar vectors stress the memory system similarly.
//  2. Projection: the sparse per-region frequencies are random-projected
//     to a fixed low dimension (seeded Rademacher ±1 projection), so
//     clustering cost is independent of footprint size while inner
//     products are preserved in expectation.
//  3. Clustering: seeded k-means++ (fixed k, or BIC model selection over
//     k = 1..maxK) groups the intervals into phases. Plan then spends a
//     detailed-window budget on the intervals nearest each cluster
//     centroid, allocating windows to clusters by interval mass.
//
// No stage touches math/rand global state: all randomness flows through
// internal/rng sources seeded explicitly, so repeat runs are
// byte-identical — the property the golden phase corpus pins.
package phase

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"

	"timekeeping/internal/hashtab"
	"timekeeping/internal/trace"
)

// Defaults for Config's zero values.
const (
	// DefaultDim is the projected signature dimension. 32 Rademacher
	// components keep pairwise distances of region-frequency vectors
	// within a few percent at the interval counts we cluster (≤ 65536).
	DefaultDim = 32
	// DefaultRegionBytes is the footprint granularity: 4 KB regions are
	// coarse enough that a signature reflects which data structures an
	// interval walks, not which cache lines.
	DefaultRegionBytes = 4096
)

// Config parameterises signature extraction. The zero value is usable:
// every field has a default.
type Config struct {
	// Dim is the projected signature dimension (0 = DefaultDim).
	Dim int
	// RegionBytes is the footprint granularity in bytes; must be a power
	// of two (0 = DefaultRegionBytes).
	RegionBytes uint64
	// Seed drives the Rademacher projection (and nothing else — the
	// clustering seed is passed to KMeans/Select separately, though
	// callers typically use one seed for both).
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Dim == 0 {
		c.Dim = DefaultDim
	}
	if c.RegionBytes == 0 {
		c.RegionBytes = DefaultRegionBytes
	}
	return c
}

// ctxCheckEvery is how many profiled references pass between context
// checks during the signature walk.
const ctxCheckEvery = 8192

// Signatures profiles the stream: it skips the first skip references (the
// warm-up span the sampling schedule never measures), then summarises up
// to n consecutive intervals of ivRefs references each as projected
// region-footprint vectors. It returns the signatures of every complete
// or partial non-empty interval, plus the total number of references
// consumed (skip included). A stream that ends early simply yields fewer
// signatures; only a malformed Config errors.
func Signatures(ctx context.Context, s trace.Stream, skip, ivRefs uint64, n int, cfg Config) ([][]float64, uint64, error) {
	cfg = cfg.withDefaults()
	if cfg.RegionBytes&(cfg.RegionBytes-1) != 0 {
		return nil, 0, fmt.Errorf("phase: RegionBytes %d is not a power of two", cfg.RegionBytes)
	}
	if cfg.Dim < 1 || cfg.Dim > 64 {
		return nil, 0, fmt.Errorf("phase: Dim %d out of range [1, 64]", cfg.Dim)
	}
	if ivRefs == 0 || n < 1 {
		return nil, 0, fmt.Errorf("phase: need ivRefs > 0 and n >= 1 (got %d, %d)", ivRefs, n)
	}
	shift := uint(bits.TrailingZeros64(cfg.RegionBytes))

	var (
		r        trace.Ref
		consumed uint64
	)
	check := func() error {
		if consumed%ctxCheckEvery == 0 {
			return ctx.Err()
		}
		return nil
	}
	for i := uint64(0); i < skip; i++ {
		if err := check(); err != nil {
			return nil, consumed, err
		}
		if !s.Next(&r) {
			return nil, consumed, nil
		}
		consumed++
	}

	sigs := make([][]float64, 0, n)
	// counts holds one interval's references per region. Its capacity and
	// probe order decide nothing: regions are sorted before projection.
	counts := hashtab.New[uint64](1024)
	var scratch []regionCount
	for iv := 0; iv < n; iv++ {
		counts.Reset()
		var got uint64
		for got < ivRefs {
			if err := check(); err != nil {
				return nil, consumed, err
			}
			if !s.Next(&r) {
				break
			}
			c, _, _ := counts.Put(r.Addr >> shift)
			*c++
			got++
			consumed++
		}
		if got == 0 {
			break
		}
		scratch = sortedCounts(&counts, scratch[:0])
		sigs = append(sigs, project(scratch, got, cfg))
		if got < ivRefs {
			break
		}
	}
	return sigs, consumed, nil
}

// project renders one interval's region counts, sorted by region, as a
// Dim-dimensional Rademacher projection of the region-frequency vector.
// Visiting regions in sorted order fixes the float accumulation order, so
// the signature does not depend on where the counter's table put them.
func project(regions []regionCount, total uint64, cfg Config) []float64 {
	vec := make([]float64, cfg.Dim)
	inv := 1 / float64(total)
	for _, rc := range regions {
		f := float64(rc.n) * inv
		// One mixed word per region supplies up to 64 independent sign
		// bits; Dim is capped at 64 above.
		h := mix64(rc.reg ^ cfg.Seed*0x9e3779b97f4a7c15)
		for d := 0; d < cfg.Dim; d++ {
			if h>>uint(d)&1 == 1 {
				vec[d] += f
			} else {
				vec[d] -= f
			}
		}
	}
	return vec
}

// regionCount is one region's reference count in an interval.
type regionCount struct {
	reg, n uint64
}

// sortedCounts appends every region counted in c to out in ascending
// region order.
func sortedCounts(c *hashtab.Table[uint64], out []regionCount) []regionCount {
	c.Range(func(reg uint64, n *uint64) { out = append(out, regionCount{reg: reg, n: *n}) })
	slices.SortFunc(out, func(a, b regionCount) int { return cmp.Compare(a.reg, b.reg) })
	return out
}

// mix64 is the splitmix64 finalizer: a fast, well-distributed 64-bit
// mixer used to derive the per-region projection signs.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// dist2 returns the squared Euclidean distance between two vectors.
func dist2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
