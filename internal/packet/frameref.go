package packet

// FrameRef is a 12-byte handle to one stored frame: the buffer slot
// holding it, the bytes stored there, and the packet's original wire
// length. The replay ring carries keyed records (internal/shard), not
// FrameRefs; FrameRef is kept as the element type of cocoperf's
// ovs.ring probe until that probe times the keyed record.
type FrameRef struct {
	Slot uint32
	Len  uint32
	Orig uint32
}
