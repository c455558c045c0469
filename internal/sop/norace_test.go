//go:build !race

package sop

const raceEnabled = false
