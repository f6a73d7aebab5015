//go:build race

package pubsub

// raceEnabled: the race detector is on. Under it sync.Pool drops a
// random share of what is put back, so allocation counts of pooled
// paths are not pinned.
const raceEnabled = true
