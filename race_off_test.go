//go:build !race

package timekeeping

const raceEnabled = false
