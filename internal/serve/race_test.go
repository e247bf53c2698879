//go:build race

package serve

// raceEnabled marks a -race build, where sync.Pool deliberately drops
// a share of its items, so pooled paths allocate by design.
const raceEnabled = true
