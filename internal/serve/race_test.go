//go:build race

package serve

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a share of Put items on purpose, so pool-backed allocation
// bounds cannot hold under it.
const raceEnabled = true
