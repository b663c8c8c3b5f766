//go:build race

package main

// slowdown stretches the smoke's runs under the race detector, which slows
// the localizers ten times or more, so each still collects enough samples.
const slowdown = 12
