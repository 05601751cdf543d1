package golden

import "testing"

// TestMechanismsMatchGoldenCorpus regression-guards the mechanisms:
// recomputing every point must reproduce testdata/golden/mechanisms.json
// byte-for-byte. Under TK_AUDIT the same points run audited, so the
// oracle checks every mechanism the file pins.
func TestMechanismsMatchGoldenCorpus(t *testing.T) {
	verifyResultList(t, MechFile, MechPoints())
}

// TestSampledMatchesGoldenCorpus regression-guards the periodic sampling
// schedules: recomputing every point must reproduce
// testdata/golden/sampled.json byte-for-byte.
func TestSampledMatchesGoldenCorpus(t *testing.T) {
	verifyResultList(t, SampledFile, SampledPoints())
}

// verifyResultList recomputes every point of a result-list corpus file in
// parallel subtests and compares each against its stored entry.
func verifyResultList(t *testing.T, file ListFile[MechEntry], points []MechPoint) {
	want, err := file.Load(Dir())
	if err != nil {
		t.Fatalf("loading %s: %v (generate with `go run ./cmd/tkgold -update`)", file, err)
	}
	if len(want) != len(points) {
		t.Fatalf("corpus has %d entries, want %d", len(want), len(points))
	}
	for i, p := range points {
		i, p := i, p
		t.Run(p.Bench+"/"+p.Config, func(t *testing.T) {
			t.Parallel()
			if want[i].Bench != p.Bench || want[i].Config != p.Config {
				t.Fatalf("entry %d is %s/%s, want %s/%s", i, want[i].Bench, want[i].Config, p.Bench, p.Config)
			}
			got, err := ComputeMech(p)
			if err != nil {
				t.Fatal(err)
			}
			if d := Diff(got, want[i]); d != "" {
				t.Errorf("result drifted: %s\nregenerate with `go run ./cmd/tkgold -update` if intentional", d)
			}
		})
	}
}
