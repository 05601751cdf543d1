package phase

import (
	"context"
	"math"
	"math/bits"
	"reflect"
	"sort"
	"testing"

	"timekeeping/internal/trace"
)

// synthStream builds a stream of n refs whose addresses alternate between
// two disjoint 4 KB-region pools on an interval boundary of ivRefs: even
// intervals walk pool A, odd intervals walk pool B. Two clear phases.
func synthStream(n, ivRefs int) *trace.SliceStream {
	refs := make([]trace.Ref, n)
	for i := range refs {
		pool := uint64(0)
		if (i/ivRefs)%2 == 1 {
			pool = 1 << 30
		}
		// Within-interval index keeps every interval's region walk
		// identical, so same-pool signatures match exactly.
		refs[i] = trace.Ref{Addr: pool + uint64((i%ivRefs)%64)*4096, Kind: trace.Load}
	}
	return &trace.SliceStream{Refs: refs}
}

func TestPhaseSignaturesShape(t *testing.T) {
	s := synthStream(8000, 1000)
	sigs, consumed, err := Signatures(context.Background(), s, 0, 1000, 8, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(sigs) != 8 {
		t.Fatalf("want 8 signatures, got %d", len(sigs))
	}
	if consumed != 8000 {
		t.Fatalf("want 8000 refs consumed, got %d", consumed)
	}
	for i, sig := range sigs {
		if len(sig) != DefaultDim {
			t.Fatalf("sig %d: dim %d, want %d", i, len(sig), DefaultDim)
		}
	}
	// The two alternating pools must produce two distinct signature groups:
	// even intervals match each other, odd intervals match each other, and
	// the groups differ.
	if !reflect.DeepEqual(sigs[0], sigs[2]) || !reflect.DeepEqual(sigs[1], sigs[3]) {
		t.Fatal("same-pool intervals produced different signatures")
	}
	if d := dist2(sigs[0], sigs[1]); d < 0.1 {
		t.Fatalf("cross-pool signature distance %v suspiciously small", d)
	}
}

func TestPhaseSignaturesSkipAndShortStream(t *testing.T) {
	s := synthStream(5000, 1000)
	sigs, consumed, err := Signatures(context.Background(), s, 1500, 1000, 8, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 5000 refs, skip 1500 → 3500 remain → 3 full intervals + one partial.
	if len(sigs) != 4 {
		t.Fatalf("want 4 signatures (3 full + 1 partial), got %d", len(sigs))
	}
	if consumed != 5000 {
		t.Fatalf("want 5000 refs consumed, got %d", consumed)
	}

	// A stream shorter than the skip yields zero signatures, no error.
	s2 := synthStream(100, 50)
	sigs, _, err = Signatures(context.Background(), s2, 500, 50, 4, Config{})
	if err != nil || len(sigs) != 0 {
		t.Fatalf("short stream: want 0 sigs nil err, got %d sigs err=%v", len(sigs), err)
	}
}

func TestPhaseSignaturesBadConfig(t *testing.T) {
	s := synthStream(100, 50)
	if _, _, err := Signatures(context.Background(), s, 0, 50, 2, Config{RegionBytes: 3000}); err == nil {
		t.Fatal("non-power-of-two RegionBytes accepted")
	}
	if _, _, err := Signatures(context.Background(), s, 0, 50, 2, Config{Dim: 65}); err == nil {
		t.Fatal("Dim > 64 accepted")
	}
	if _, _, err := Signatures(context.Background(), s, 0, 0, 2, Config{}); err == nil {
		t.Fatal("ivRefs == 0 accepted")
	}
}

func TestPhaseSignaturesDeterministic(t *testing.T) {
	a, _, err := Signatures(context.Background(), synthStream(8000, 1000), 0, 1000, 8, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Signatures(context.Background(), synthStream(8000, 1000), 0, 1000, 8, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeat signature runs differ")
	}
	c, _, err := Signatures(context.Background(), synthStream(8000, 1000), 0, 1000, 8, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical projections")
	}
}

func TestPhaseSignaturesCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Big enough that a context check (every 8192 refs) must trigger.
	_, _, err := Signatures(ctx, synthStream(20000, 10000), 0, 10000, 2, Config{})
	if err == nil {
		t.Fatal("cancelled context not observed")
	}
}

func TestPhaseKMeansTwoPhases(t *testing.T) {
	sigs, _, err := Signatures(context.Background(), synthStream(16000, 1000), 0, 1000, 16, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cl := KMeans(sigs, 2, 1)
	if cl.K != 2 {
		t.Fatalf("K = %d, want 2", cl.K)
	}
	// The alternating pools must land in alternating clusters.
	for i := 2; i < len(cl.Assign); i++ {
		if cl.Assign[i] != cl.Assign[i-2] {
			t.Fatalf("interval %d not clustered with its pool", i)
		}
	}
	if cl.Assign[0] == cl.Assign[1] {
		t.Fatal("both pools landed in one cluster")
	}
	if cl.Sizes[0] != 8 || cl.Sizes[1] != 8 {
		t.Fatalf("sizes %v, want [8 8]", cl.Sizes)
	}
	if cl.WCSS > 1e-18 {
		t.Fatalf("WCSS %v for perfectly separable data", cl.WCSS)
	}
}

func TestPhaseKMeansDeterministicAndClamped(t *testing.T) {
	sigs, _, _ := Signatures(context.Background(), synthStream(16000, 1000), 0, 1000, 16, Config{Seed: 1})
	a := KMeans(sigs, 3, 9)
	b := KMeans(sigs, 3, 9)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeat KMeans runs differ")
	}
	if cl := KMeans(sigs[:2], 10, 1); cl.K != 2 {
		t.Fatalf("k not clamped to n: K = %d", cl.K)
	}
	if cl := KMeans(sigs, 0, 1); cl.K != 1 {
		t.Fatalf("k not clamped to 1: K = %d", cl.K)
	}
}

func TestPhaseSelectPicksTwo(t *testing.T) {
	sigs, _, _ := Signatures(context.Background(), synthStream(16000, 1000), 0, 1000, 16, Config{Seed: 1})
	cl := Select(sigs, 8, 1)
	if cl.K != 2 {
		t.Fatalf("BIC selected K = %d for 2-phase data, want 2", cl.K)
	}
}

func TestPhaseSelectUniformPicksOne(t *testing.T) {
	// One pool throughout → every interval identical → K = 1.
	refs := make([]trace.Ref, 8000)
	for i := range refs {
		refs[i] = trace.Ref{Addr: uint64((i%1000)%64) * 4096, Kind: trace.Load}
	}
	sigs, _, _ := Signatures(context.Background(), &trace.SliceStream{Refs: refs}, 0, 1000, 8, Config{Seed: 1})
	cl := Select(sigs, 8, 1)
	if cl.K != 1 {
		t.Fatalf("BIC selected K = %d for uniform data, want 1", cl.K)
	}
}

func TestPhasePlanBudgetSplit(t *testing.T) {
	sigs, _, _ := Signatures(context.Background(), synthStream(16000, 1000), 0, 1000, 16, Config{Seed: 1})
	cl := KMeans(sigs, 2, 1)

	plan := cl.Plan(sigs, 6)
	if len(plan) != 6 {
		t.Fatalf("plan has %d windows, want 6", len(plan))
	}
	perCluster := map[int]int{}
	var mass float64
	for i, w := range plan {
		if i > 0 && plan[i-1].Interval >= w.Interval {
			t.Fatal("plan not sorted by interval")
		}
		perCluster[w.Cluster]++
		mass += w.Weight
	}
	// Equal masses → 3 windows each; total weight must equal total mass.
	if perCluster[0] != 3 || perCluster[1] != 3 {
		t.Fatalf("allocation %v, want 3 per cluster", perCluster)
	}
	if math.Abs(mass-16) > 1e-9 {
		t.Fatalf("total weight %v, want 16 (the interval mass)", mass)
	}

	// Budget below cluster count: only the heaviest cluster is measured.
	one := cl.Plan(sigs, 1)
	if len(one) != 1 {
		t.Fatalf("plan has %d windows, want 1", len(one))
	}
	if one[0].Weight != 8 {
		t.Fatalf("single window weight %v, want its cluster mass 8", one[0].Weight)
	}
}

func TestPhasePlanCapsAtClusterSize(t *testing.T) {
	// 4 intervals in one phase, 12 in the other: a budget of 16 cannot put
	// more than 4 windows on the small cluster.
	refs := make([]trace.Ref, 16000)
	for i := range refs {
		pool := uint64(0)
		if i/1000 < 4 {
			pool = 1 << 30
		}
		refs[i] = trace.Ref{Addr: pool + uint64((i%1000)%64)*4096, Kind: trace.Load}
	}
	sigs, _, _ := Signatures(context.Background(), &trace.SliceStream{Refs: refs}, 0, 1000, 16, Config{Seed: 1})
	cl := KMeans(sigs, 2, 1)
	plan := cl.Plan(sigs, 16)
	if len(plan) != 16 {
		t.Fatalf("plan has %d windows, want 16", len(plan))
	}
	seen := map[int]bool{}
	for _, w := range plan {
		if seen[w.Interval] {
			t.Fatalf("interval %d planned twice", w.Interval)
		}
		seen[w.Interval] = true
	}
}

// mapSignatures is Signatures with the profiler's original counter, a
// map[uint64]float64 visited in sorted region order: the reference the
// flat counter must reproduce bit for bit.
func mapSignatures(refs []trace.Ref, ivRefs uint64, n int, cfg Config) [][]float64 {
	cfg = cfg.withDefaults()
	shift := uint(bits.TrailingZeros64(cfg.RegionBytes))
	var sigs [][]float64
	for iv := 0; iv < n && len(refs) > 0; iv++ {
		got := min(ivRefs, uint64(len(refs)))
		counts := map[uint64]float64{}
		for _, r := range refs[:got] {
			counts[r.Addr>>shift]++
		}
		refs = refs[got:]
		regions := make([]uint64, 0, len(counts))
		for reg := range counts {
			regions = append(regions, reg)
		}
		sort.Slice(regions, func(i, j int) bool { return regions[i] < regions[j] })
		vec := make([]float64, cfg.Dim)
		inv := 1 / float64(got)
		for _, reg := range regions {
			f := counts[reg] * inv
			h := mix64(reg ^ cfg.Seed*0x9e3779b97f4a7c15)
			for d := 0; d < cfg.Dim; d++ {
				if h>>uint(d)&1 == 1 {
					vec[d] += f
				} else {
					vec[d] -= f
				}
			}
		}
		sigs = append(sigs, vec)
		if got < ivRefs {
			break
		}
	}
	return sigs
}

// sameBits reports whether two signature sets are bit-identical.
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for d := range a[i] {
			if math.Float64bits(a[i][d]) != math.Float64bits(b[i][d]) {
				return false
			}
		}
	}
	return true
}

// TestPhaseRegionCounterMatchesMap holds the signatures of the flat region
// count equal to a map count's: at byte granularity, where regions 0 and
// 2^64-1 are both real, and over an interval whose region count makes the
// table grow, followed by intervals that reuse the grown table. The
// counts themselves are held to a map's in internal/hashtab.
func TestPhaseRegionCounterMatchesMap(t *testing.T) {
	addrs := func(as ...uint64) []trace.Ref {
		refs := make([]trace.Ref, len(as))
		for i, a := range as {
			refs[i] = trace.Ref{Addr: a, Kind: trace.Load}
		}
		return refs
	}
	const top = ^uint64(0)
	wide := make([]trace.Ref, 0, 12000)
	for i := 0; i < 6000; i++ { // 6000 distinct regions in the first interval
		wide = append(wide, trace.Ref{Addr: uint64(i) * DefaultRegionBytes * 3, Kind: trace.Load})
	}
	for i := 0; i < 6000; i++ { // then few regions per interval
		wide = append(wide, trace.Ref{Addr: uint64(i%5) << 40, Kind: trace.Store})
	}
	cases := []struct {
		name   string
		refs   []trace.Ref
		ivRefs uint64
		cfg    Config
	}{
		{"byte regions 0 and 2^64-1", addrs(0, top, 0, 1, top, top, 0, 1<<63, top-1, 0, top, 2), 4, Config{RegionBytes: 1, Seed: 5}},
		{"only region 2^64-1", addrs(top, top, top), 3, Config{RegionBytes: 1, Seed: 5}},
		{"only region 0", addrs(0, 0, 0, 0, 0), 2, Config{RegionBytes: 1, Seed: 5}},
		{"growing table", wide, 6000, Config{Seed: 9}},
		{"growing table, short intervals", wide, 1500, Config{Seed: 9}},
	}
	for _, tc := range cases {
		n := len(tc.refs)/int(tc.ivRefs) + 1
		got, consumed, err := Signatures(context.Background(), &trace.SliceStream{Refs: tc.refs}, 0, tc.ivRefs, n, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if consumed != uint64(len(tc.refs)) {
			t.Fatalf("%s: consumed %d of %d refs", tc.name, consumed, len(tc.refs))
		}
		if want := mapSignatures(tc.refs, tc.ivRefs, n, tc.cfg); !sameBits(got, want) {
			t.Fatalf("%s: flat counter signatures differ from the map count's", tc.name)
		}
	}
}
