//go:build !race

package servable

const raceEnabled = false
