//go:build race

package prochlo_test

func init() { raceEnabled = true }
