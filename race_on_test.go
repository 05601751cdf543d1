//go:build race

package timekeeping

// raceEnabled gates wall-clock assertions: the race detector slows the
// instrumented code unevenly, so budgets are only enforced in
// uninstrumented runs.
const raceEnabled = true
