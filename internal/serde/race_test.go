//go:build race

package serde_test

func init() { raceEnabled = true }
