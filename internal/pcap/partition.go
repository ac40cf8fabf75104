package pcap

import (
	"fmt"
	"io"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/packet"
)

// Queue is one receive queue of the simulated multi-queue NIC: a
// self-contained, replayable pcap stream holding the subset of a
// capture that receive-side scaling steered to this queue. Queues are
// produced by PartitionRSS and replayed independently — typically one
// reader goroutine per queue feeding one shard worker directly, which
// removes the single-reader bottleneck of whole-trace replay.
type Queue struct {
	data    blocks
	packets int
}

// Open returns a fresh Reader over the queue's stream. Each call
// replays from the beginning, so a queue can be replayed many times
// (benchmark loops, differential tests).
func (q *Queue) Open() (*Reader, error) { return NewReader(&blockReader{blocks: q.data}) }

// Packets returns the number of records in the queue.
func (q *Queue) Packets() int { return q.packets }

// Bytes returns the encoded size of the queue's pcap stream.
func (q *Queue) Bytes() int {
	n := 0
	for _, b := range q.data {
		n += len(b)
	}
	return n
}

// blocks is a byte stream kept in blockSize pieces, so it grows
// without copying what it holds and holds its bytes plus less than one
// block: a partition of a capture costs about one copy of it.
type blocks [][]byte

// Write appends p to the stream.
func (b *blocks) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if len(*b) == 0 || len((*b)[len(*b)-1]) == blockSize {
			*b = append(*b, make([]byte, 0, blockSize))
		}
		last := &(*b)[len(*b)-1]
		k := min(len(p), blockSize-len(*last))
		*last = append(*last, p[:k]...)
		p = p[k:]
	}
	return n, nil
}

// blockReader reads a blocks stream from its start.
type blockReader struct {
	blocks blocks
	i, off int // the next byte is blocks[i][off]
}

// Read implements io.Reader.
func (r *blockReader) Read(p []byte) (int, error) {
	for r.i < len(r.blocks) && r.off == len(r.blocks[r.i]) {
		r.i, r.off = r.i+1, 0
	}
	if r.i == len(r.blocks) {
		return 0, io.EOF
	}
	n := copy(p, r.blocks[r.i][r.off:])
	r.off += n
	return n, nil
}

// PartitionRSS splits an Ethernet pcap stream into queues receive
// queues, the way a NIC's receive-side scaling spreads flows across
// hardware queues: every record is steered by flowkey.RSSIndex over
// its decoded 5-tuple — the same function the shard replay steers
// with, so queue i holds exactly the packets a shard replay with
// Queues == queues and the same seed would steer to its queue i, in
// the same order. Frames the decoder rejects (non-IP, truncated) steer to
// queue 0, mirroring how FromPCAP-based replay skips them at the
// consumer. Timestamps are re-encoded at microsecond resolution (the
// classic-writer format); key extraction and replay order are
// unaffected.
//
// Partitioning is a one-time setup pass. It holds about one copy of
// the capture, as every queue's stream grows in blocks; only replay of
// the returned queues is on the zero-allocation path.
func PartitionRSS(r io.Reader, queues int, seed uint64) ([]*Queue, error) {
	if queues <= 0 {
		return nil, fmt.Errorf("pcap: PartitionRSS needs at least one queue, got %d", queues)
	}
	pr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	if lt := pr.LinkType(); lt != LinkTypeEthernet {
		return nil, fmt.Errorf("pcap: PartitionRSS supports only Ethernet captures, got link type %d", lt)
	}
	ws := make([]*Writer, queues)
	out := make([]*Queue, queues)
	for i := range ws {
		out[i] = &Queue{}
		w, err := NewWriter(&out[i].data, LinkTypeEthernet, pr.SnapLen())
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	for {
		hdr, data, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		q := 0
		if key, ok := packet.ExtractFiveTuple(data); ok {
			q = flowkey.RSSIndex(key, seed, queues)
		}
		if err := ws[q].WritePacket(hdr.Timestamp, data, hdr.OriginalLength); err != nil {
			return nil, err
		}
		out[q].packets++
	}
	for _, w := range ws {
		if err := w.Flush(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
