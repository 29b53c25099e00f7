package petri

import "math/bits"

// Shard ownership is a pure function of the marking hash, shared by
// every consumer that partitions the marking space across workers: the
// cross-process runtime (internal/dist) assigns each worker process a
// contiguous range of shards and routes every marking by this one
// function, so coordinator and workers agree about who owns which
// marking without any negotiation.

// ShardOfHash returns the shard a marking with HashMarking value h
// lands in, out of a power-of-two shard count: the top bits of the
// hash. Carries from every place's weighted count reach the top bits
// of the additive hash, so they spread markings over the shards; the
// store's open-addressing table takes its slots from a finalizer of
// the whole hash instead (probeHash), so the two selections stay
// independent.
func ShardOfHash(h uint64, shards int) uint32 {
	return uint32(h >> uint(64-bits.TrailingZeros(uint(shards))))
}

// ShardOwner maps a shard to the worker owning it when `shards` shards
// are split across `workers` workers as contiguous ranges. Shard
// counts at least as large as the worker count give every worker a
// non-empty range.
func ShardOwner(shard uint32, shards, workers int) int {
	return int(uint64(shard) * uint64(workers) / uint64(shards))
}

// OwnedShardRange returns the contiguous shard range [lo, hi) that
// ShardOwner assigns to one worker — the inverse view of the same
// mapping, used for logging and for sizing trimmed worker replicas.
func OwnedShardRange(worker, shards, workers int) (lo, hi int) {
	lo = (worker*shards + workers - 1) / workers
	hi = ((worker+1)*shards + workers - 1) / workers
	return lo, hi
}

// NumFrontierShards returns the shard count for a given worker count: a
// power of two at least 4x the workers (so ranges stay balanced) capped
// at 256.
func NumFrontierShards(workers int) int {
	if workers < 1 {
		workers = 1
	}
	n := 2
	for n < 4*workers {
		n <<= 1
	}
	if n > 256 {
		n = 256
	}
	return n
}
