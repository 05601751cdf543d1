// Command tkgold maintains the golden-stats regression corpus under
// testdata/golden: one entry per synthetic benchmark under the paper's
// baseline configuration, plus the reduced-scale set the benchmark smoke
// verifies, the phase-sampled estimates and the mechanism results.
//
// Default mode (also spelled -verify) recomputes every entry and reports
// drift against the stored corpus — every drifted entry with every
// differing stat, not just the first mismatch — and exits 1 on any.
// -update rewrites the corpus — the only sanctioned way to change it;
// review the diff like any other code change.
//
// Usage:
//
//	go run ./cmd/tkgold            # verify
//	go run ./cmd/tkgold -verify    # same, explicit
//	go run ./cmd/tkgold -update    # regenerate after an intentional change
//	go run ./cmd/tkgold -only mcf  # restrict to one benchmark
//
// -store-dir audits a durable result store (internal/store, the disk
// tier behind tkserve/tksim/tkexp -cache-dir) against the corpus without
// simulating anything: every corpus configuration present in the store
// must carry exactly the golden stats. Absent entries are reported but
// are not drift; corrupt entries are quarantined by the store on read
// and show up as absent.
//
//	go run ./cmd/tkgold -store-dir /var/lib/tkserve
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"timekeeping/internal/golden"
	"timekeeping/internal/simcache"
	"timekeeping/internal/store"
	"timekeeping/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process edges injected, so tests can drive the
// corruption / drift paths and assert on the exit code and output.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("tkgold", flag.ContinueOnError)
	fs.SetOutput(errOut)
	update := fs.Bool("update", false, "rewrite the corpus instead of verifying it")
	verify := fs.Bool("verify", false, "verify the corpus (the default; explicit form for scripts)")
	only := fs.String("only", "", "restrict to one benchmark (full-scale corpus only)")
	dir := fs.String("dir", golden.Dir(), "corpus directory")
	storeDir := fs.String("store-dir", "", "audit a durable result store against the corpus instead of re-simulating")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *update && *verify {
		fmt.Fprintln(errOut, "tkgold: -update and -verify are mutually exclusive")
		return 2
	}
	if *update && *storeDir != "" {
		fmt.Fprintln(errOut, "tkgold: -update and -store-dir are mutually exclusive (the store is written by runs, not by tkgold)")
		return 2
	}

	benches := workload.Names()
	if *only != "" {
		benches = []string{*only}
	}

	if *storeDir != "" {
		return auditStore(*storeDir, *dir, benches, out, errOut)
	}

	var drifted []string
	opt := golden.CorpusOptions()
	for _, b := range benches {
		e, err := golden.Compute(b, opt)
		if err != nil {
			fmt.Fprintln(errOut, "tkgold:", err)
			return 1
		}
		if *update {
			if err := golden.Save(e); err != nil {
				fmt.Fprintln(errOut, "tkgold:", err)
				return 1
			}
			fmt.Fprintf(out, "wrote %s\n", golden.Path(b))
			continue
		}
		want, err := golden.LoadFrom(*dir, b)
		if err != nil {
			fmt.Fprintf(errOut, "tkgold: %s: %v (run with -update to create the corpus)\n", b, err)
			return 1
		}
		if d := golden.Diff(e, want); d != "" {
			fmt.Fprintf(out, "DRIFT %s: %s\n", b, d)
			drifted = append(drifted, b)
		} else {
			fmt.Fprintf(out, "ok    %s\n", b)
		}
	}

	if *only == "" {
		for _, c := range listCorpora(*update, *dir, out) {
			if err := c.maintain(); err != nil {
				if *update {
					fmt.Fprintln(errOut, "tkgold:", err)
					return 1
				}
				fmt.Fprintf(out, "DRIFT %s: %v\n", c.name, err)
				drifted = append(drifted, c.name)
			} else if !*update {
				fmt.Fprintf(out, "ok    %s\n", c.name)
			}
		}
	}

	if len(drifted) > 0 {
		fmt.Fprintf(out, "%d entries drifted (%v); regenerate with `go run ./cmd/tkgold -update` if intentional\n",
			len(drifted), drifted)
		return 1
	}
	return 0
}

// auditStore checks a disk result tier against the golden corpus without
// running a single simulation: for each corpus entry, the store is probed
// at the content-addressed key of the recorded configuration, and any
// result present must match the golden stats exactly. Reading through the
// store also exercises its own integrity checks — damaged entries are
// quarantined and therefore report as absent, never as clean.
func auditStore(storeDir, corpusDir string, benches []string, out, errOut io.Writer) int {
	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		fmt.Fprintln(errOut, "tkgold:", err)
		return 1
	}
	defer st.Close()

	var drifted []string
	present := 0
	for _, b := range benches {
		want, err := golden.LoadFrom(corpusDir, b)
		if err != nil {
			fmt.Fprintf(errOut, "tkgold: %s: %v (run with -update to create the corpus)\n", b, err)
			return 1
		}
		// Reconstruct the configuration the corpus entry was recorded
		// under; its content hash is the store key.
		opt := golden.CorpusOptions()
		opt.WarmupRefs = want.WarmupRefs
		opt.MeasureRefs = want.MeasureRefs
		opt.Seed = want.Seed
		res, ok := st.Get(simcache.Key(b, opt))
		if !ok {
			fmt.Fprintf(out, "absent %s\n", b)
			continue
		}
		present++
		if d := golden.Diff(golden.EntryOf(b, opt, res), want); d != "" {
			fmt.Fprintf(out, "DRIFT %s: %s\n", b, d)
			drifted = append(drifted, b)
		} else {
			fmt.Fprintf(out, "ok     %s\n", b)
		}
	}
	fmt.Fprintf(out, "%d/%d corpus entries present in %s\n", present, len(benches), storeDir)
	if len(drifted) > 0 {
		fmt.Fprintf(out, "%d stored entries drifted (%v); the store holds results the corpus disowns\n", len(drifted), drifted)
		return 1
	}
	return 0
}

// listCorpusFile names a list-valued corpus file in tkgold's report.
type listCorpusFile struct {
	name     string
	maintain func() error
}

// listCorpora are the list-valued corpus files, each maintained (rewritten
// under update, verified against dir otherwise) by its own listCorpus call:
//   - bench_fig1.json: the benchmark-smoke subset at the reduced scale
//     bench_test.go runs;
//   - phase_sampled.json: phase-sampled estimates for the representative
//     subset, pinning the seeded clustering pipeline's determinism
//     (signatures, k-means, window plan, stratified estimates);
//   - mechanisms.json: the full result of every mechanism configuration
//     on the representative subset, pinning the prefetchers and the
//     victim cache that the base-configuration entries never attach.
func listCorpora(update bool, dir string, out io.Writer) []listCorpusFile {
	benchOpt, phaseOpt := golden.BenchScaleOptions(), golden.PhaseOptions()
	return []listCorpusFile{
		{"bench_fig1", func() error {
			return listCorpus(update, dir, out, golden.BenchFile,
				[]string{"eon", "twolf", "vpr", "ammp", "swim", "mcf", "facerec", "gcc"},
				func(b string) (golden.Entry, error) { return golden.Compute(b, benchOpt) },
				func(e golden.Entry) string { return e.Bench })
		}},
		{"phase_sampled", func() error {
			return listCorpus(update, dir, out, golden.PhaseFile, golden.PhaseBenches,
				func(b string) (golden.PhaseEntry, error) { return golden.ComputePhase(b, phaseOpt) },
				func(e golden.PhaseEntry) string { return e.Bench })
		}},
		{"mechanisms", func() error {
			return listCorpus(update, dir, out, golden.MechFile, golden.MechPoints(), golden.ComputeMech,
				func(e golden.MechEntry) string { return e.Bench + "/" + e.Config })
		}},
	}
}

// listCorpus computes one entry per point, in file order, then rewrites
// file (update) or compares it entry by entry against the copy in dir,
// naming the first drifted entry by its label.
func listCorpus[P, T any](update bool, dir string, out io.Writer, file golden.ListFile[T],
	points []P, compute func(P) (T, error), label func(T) string) error {
	var entries []T
	for _, p := range points {
		e, err := compute(p)
		if err != nil {
			return err
		}
		entries = append(entries, e)
	}
	if update {
		if err := file.Save(entries); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", file.Path(golden.Dir()))
		return nil
	}
	want, err := file.Load(dir)
	if err != nil {
		return fmt.Errorf("%w (run with -update to create the corpus)", err)
	}
	if len(want) != len(entries) {
		return fmt.Errorf("stored %d entries, computed %d", len(want), len(entries))
	}
	for i, e := range entries {
		if d := golden.Diff(e, want[i]); d != "" {
			return fmt.Errorf("%s: %s", label(e), d)
		}
	}
	return nil
}
