package packet

// Slot names one fixed-capacity frame buffer in a replay queue's slot
// arena (internal/shard).
type Slot = uint32

// FrameRef is the shallow handle to one frame that moves between a
// queue reader and its worker over an SPSC ring
// (ovs.RingOf[FrameRef]): the slot the reader filled, the number of
// bytes it stored there, and the packet's original wire length (which
// can exceed Len when the capture or the slot truncated it). Passing
// 12-byte references instead of frames keeps the ring handoff free of
// copies and the ring slots allocation-free.
type FrameRef struct {
	Slot Slot
	Len  uint32
	Orig uint32
}
