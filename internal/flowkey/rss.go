package flowkey

// rssSeedMix decorrelates the receive-side-scaling hash from the
// sketch hash seeds, so the split across queues is independent of
// bucket placement inside any one sketch.
const rssSeedMix = 0x5bd1e995

// RSSIndex maps a key to one of n receive queues, the way a NIC's
// receive-side scaling spreads flows across hardware queues: lane 0 of
// the sketches' wide hash (FiveTuple.HashSeeds) under a seed derived
// from the replay seed, range-reduced by multiply-shift. It is the
// single definition of the split shared by the shard replay's steering
// and the simulated multi-queue pcap partition (pcap.PartitionRSS), so
// a trace partitioned into n queues lands packets on exactly the
// queues the replay would have steered them to — the property behind
// the bit-identical multi-queue replay tests.
//
// All packets of a flow map to one queue (the hash sees only the key),
// and n == 1 always returns 0. The call performs no allocation.
func RSSIndex(k FiveTuple, seed uint64, n int) int {
	if n <= 1 {
		return 0
	}
	var seeds, out [1]uint32
	seeds[0] = uint32(seed) ^ rssSeedMix
	k.HashSeeds(seeds[:], out[:])
	return int(uint64(out[0]) * uint64(n) >> 32)
}
