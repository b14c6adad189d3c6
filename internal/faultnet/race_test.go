//go:build race

package faultnet

func init() { raceEnabled = true }
