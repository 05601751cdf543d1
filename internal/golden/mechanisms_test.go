package golden

import "testing"

// TestMechanismsMatchGoldenCorpus regression-guards the mechanisms:
// recomputing every point must reproduce testdata/golden/mechanisms.json
// byte-for-byte. Under TK_AUDIT the same points run audited, so the
// oracle checks every mechanism the file pins.
func TestMechanismsMatchGoldenCorpus(t *testing.T) {
	want, err := MechFile.Load(Dir())
	if err != nil {
		t.Fatalf("loading mechanism corpus: %v (generate with `go run ./cmd/tkgold -update`)", err)
	}
	points := MechPoints()
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
				t.Errorf("mechanism result drifted: %s\nregenerate with `go run ./cmd/tkgold -update` if intentional", d)
			}
		})
	}
}
