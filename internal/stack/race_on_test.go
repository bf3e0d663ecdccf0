//go:build race

package stack

// raceBuild: the race build poisons released messages and events and never reuses their
// structs (appia/poison_race.go), so allocation counts are not the product's.
const raceBuild = true
