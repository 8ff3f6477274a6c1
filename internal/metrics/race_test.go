//go:build race

package metrics

func init() { raceEnabled = true }
