//go:build race

package sparksql

const raceEnabled = true
