package shardrt

// ShardOf maps a join key to its shard with a Fibonacci-style multiplicative
// hash: platform-independent, deterministic, and scrambling enough that the
// trend workloads (keys drifting through a contiguous range) spread across
// shards instead of marching through them one at a time.
func ShardOf(key, shards int) int {
	if shards == 1 {
		return 0
	}
	h := uint64(int64(key)) * 0x9E3779B97F4A7C15
	h ^= h >> 32
	return int(h % uint64(shards))
}
