package core

// SplitMix64 is the SplitMix64 finalizer: a bijective avalanche of the seed
// counter, the standard generator for deriving independent per-stream seeds.
// Scenario generators and fuzzers derive every sub-seed (per scenario family,
// per case index) through it, which keeps fuzzed workloads deterministic and
// replayable from a single logged seed without correlated RNG streams.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
