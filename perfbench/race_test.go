//go:build race

package main

// raceEnabled marks a -race build. The race detector slows the
// in-process replay several times over but not the separately built
// server, so timing comparisons between the two mean nothing under it.
const raceEnabled = true
