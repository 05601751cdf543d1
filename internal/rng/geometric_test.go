package rng_test

import (
	"math"
	"sort"
	"testing"

	"timekeeping/internal/rng"
	"timekeeping/internal/workload"
)

// logGeometric is Geometric as it was before the table path, given the
// uniform draw u and den = logDen(m): int(log(u)/den) with math.Log,
// clamped to [0, 2^20]. Every sample Geometric returns must equal it.
func logGeometric(m, den, u float64) int {
	if m <= 0 {
		return 0
	}
	if u <= 0 {
		u = 1e-18
	}
	n := int(math.Log(u) / den)
	if n < 0 {
		return 0
	}
	if n > 1<<20 {
		return 1 << 20
	}
	return n
}

// logDen is mean m's denominator log(1-p) with p = 1/(m+1).
func logDen(m float64) float64 { return math.Log(1 - 1/(m+1)) }

// profileMeans returns every gap mean the workload profiles draw with:
// each component's GapMean, and four times it for bursty components.
func profileMeans(t testing.TB) []float64 {
	seen := map[float64]bool{}
	for _, name := range workload.Names() {
		for _, c := range workload.MustProfile(name).Components {
			if c.GapMean <= 0 {
				continue
			}
			seen[c.GapMean] = true
			if c.Bursty {
				seen[4*c.GapMean] = true
			}
		}
	}
	means := make([]float64, 0, len(seen))
	for m := range seen {
		means = append(means, m)
	}
	sort.Float64s(means)
	if len(means) == 0 {
		t.Fatal("no profile draws a gap")
	}
	return means
}

// extremeMeans lie far outside the profiles: a mean whose denominator is
// -Inf, small and large finite means, and the non-finite ones.
var extremeMeans = []float64{1e-300, 0.25, 36, 1e3, 1e6, math.Inf(1), math.NaN()}

// checkDraws compares n consecutive Geometric(m) samples from seed with
// logGeometric on a twin stream's uniforms.
func checkDraws(t *testing.T, m float64, seed uint64, n int) {
	t.Helper()
	a, b := rng.New(seed), rng.New(seed)
	den := logDen(m)
	for i := 0; i < n; i++ {
		u := b.Float64()
		if got, want := a.Geometric(m), logGeometric(m, den, u); got != want {
			t.Fatalf("mean %v draw %d (u=%v): Geometric %d, math.Log expression %d", m, i, u, got, want)
		}
	}
}

func TestGeometricMatchesLogAtProfileMeans(t *testing.T) {
	n := 10_000_000
	if testing.Short() {
		n = 100_000
	}
	for i, m := range profileMeans(t) {
		checkDraws(t, m, uint64(1000+i), n)
	}
}

func TestGeometricMatchesLogAtExtremeMeans(t *testing.T) {
	n := 2_000_000
	if testing.Short() {
		n = 20_000
	}
	for i, m := range extremeMeans {
		checkDraws(t, m, uint64(2000+i), n)
	}
}

// TestGeometricBucketEdges checks the uniforms on both sides of every
// table bucket edge 2^e(1+i/1024), where the table's bounds are tightest:
// the values Float64 can produce (multiples of 2^-53) nearest each edge in
// each of its binades, and, for every binade down to 1e-18's, the floats
// within two ulps of each edge.
func TestGeometricBucketEdges(t *testing.T) {
	means := append(profileMeans(t), extremeMeans...)
	for _, m := range means {
		den := logDen(m)
		check := func(m, u float64) {
			if got, _ := rng.GeometricAt(m, u); got != logGeometric(m, den, u) {
				t.Fatalf("mean %v u=%v (%#x): table path %d, math.Log expression %d",
					m, u, math.Float64bits(u), got, logGeometric(m, den, u))
			}
		}
		check(m, 0)
		for e := -53; e <= -1; e++ {
			base := uint64(1) << (e + 53) // 2^e in units of 2^-53
			for i := uint64(0); i <= 1024; i++ {
				edge := base + i*base>>10
				for k := edge - 2; k <= edge+2; k++ {
					if k >= 1 && k < 1<<53 {
						check(m, float64(k)/(1<<53))
					}
				}
			}
		}
		for e := -60; e <= -1; e++ {
			for i := 0; i <= 1024; i++ {
				edge := math.Ldexp(1+float64(i)/1024, e)
				lo, hi := edge, edge
				for k := 0; k < 2; k++ {
					lo = math.Nextafter(lo, 0)
					hi = math.Nextafter(hi, 1)
				}
				for u := lo; u <= hi && u < 1; u = math.Nextafter(u, 1) {
					check(m, u)
				}
			}
		}
	}
}

// TestGeometricTableCoverage gates the table path's speed: a broken table
// or an over-wide margin stays exact but sends draws to math.Log, and only
// the share the table answers shows it.
func TestGeometricTableCoverage(t *testing.T) {
	const n = 1_000_000
	for _, m := range profileMeans(t) {
		r := rng.New(42)
		answered := 0
		for i := 0; i < n; i++ {
			if _, table := rng.GeometricAt(m, r.Float64()); table {
				answered++
			}
		}
		share := float64(answered) / n
		t.Logf("mean %v: table answered %.4f of draws", m, share)
		if share < 0.99 {
			t.Errorf("mean %v: table answered %.4f of %d draws, want >= 0.99", m, share, n)
		}
	}
}

// FuzzGeometric takes a mean's raw bits and the raw 64 bits a Float64 draw
// consumes, and requires the sample to equal the math.Log expression.
func FuzzGeometric(f *testing.F) {
	for _, m := range append([]float64{1, 1.5, 4, 9, 0, -1, math.Inf(-1)}, extremeMeans...) {
		f.Add(math.Float64bits(m), uint64(0))
		f.Add(math.Float64bits(m), uint64(1)<<11)
		f.Add(math.Float64bits(m), ^uint64(0))
		f.Add(math.Float64bits(m), uint64(0x5555_5555_5555_5555))
	}
	f.Fuzz(func(t *testing.T, meanBits, uniBits uint64) {
		m := math.Float64frombits(meanBits)
		u := float64(uniBits>>11) / (1 << 53)
		got, _ := rng.GeometricAt(m, u)
		if want := logGeometric(m, logDen(m), u); got != want {
			t.Fatalf("mean %v u=%v: table path %d, math.Log expression %d", m, u, got, want)
		}
	})
}
