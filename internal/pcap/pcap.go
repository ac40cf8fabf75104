// Package pcap reads and writes classic libpcap capture files (the
// format of the CAIDA and MAWI trace archives the paper replays). Both
// byte orders and both timestamp resolutions (µs magic 0xa1b2c3d4, ns
// magic 0xa1b23c4d) are supported. Only the classic format is
// implemented — pcapng is out of scope.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Magic numbers of the classic pcap format.
const (
	MagicMicroseconds = 0xa1b2c3d4
	MagicNanoseconds  = 0xa1b23c4d
)

// LinkType values (subset).
const (
	LinkTypeEthernet = 1
	LinkTypeRaw      = 101
)

// ErrBadMagic reports an unrecognized file magic.
var ErrBadMagic = errors.New("pcap: bad magic number")

// MaxSnapLen bounds per-record capture lengths to keep a corrupt file
// from forcing a huge allocation.
const MaxSnapLen = 256 * 1024

// Header is the per-record metadata.
type Header struct {
	// Timestamp of capture.
	Timestamp time.Time
	// CaptureLength is the number of stored bytes.
	CaptureLength int
	// OriginalLength is the packet's length on the wire.
	OriginalLength int
}

// Reader decodes a pcap stream.
type Reader struct {
	r        *bufio.Reader
	order    binary.ByteOrder
	nanos    bool
	linkType uint32
	snapLen  uint32
	buf      []byte
	rec      [16]byte // the last record header ReadFrame consumed; a local would escape through io.ReadFull
}

// NewReader parses the global header and returns a reader positioned at
// the first record.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	pr := &Reader{r: br}
	magicLE := binary.LittleEndian.Uint32(hdr[0:4])
	magicBE := binary.BigEndian.Uint32(hdr[0:4])
	switch {
	case magicLE == MagicMicroseconds:
		pr.order = binary.LittleEndian
	case magicLE == MagicNanoseconds:
		pr.order, pr.nanos = binary.LittleEndian, true
	case magicBE == MagicMicroseconds:
		pr.order = binary.BigEndian
	case magicBE == MagicNanoseconds:
		pr.order, pr.nanos = binary.BigEndian, true
	default:
		return nil, fmt.Errorf("%w: %#08x", ErrBadMagic, magicLE)
	}
	if major := pr.order.Uint16(hdr[4:6]); major != 2 {
		return nil, fmt.Errorf("pcap: unsupported version %d", major)
	}
	pr.snapLen = pr.order.Uint32(hdr[16:20])
	pr.linkType = pr.order.Uint32(hdr[20:24])
	return pr, nil
}

// LinkType returns the capture's link type (LinkTypeEthernet for the
// traces this repo generates).
func (r *Reader) LinkType() uint32 { return r.linkType }

// SnapLen returns the capture's snapshot length.
func (r *Reader) SnapLen() uint32 { return r.snapLen }

// Next returns the next record. The returned data slice is reused by
// subsequent calls; copy it to retain. io.EOF signals a clean end of
// file.
func (r *Reader) Next() (Header, []byte, error) {
	var rec [16]byte
	if _, err := io.ReadFull(r.r, rec[:]); err != nil {
		if err == io.EOF {
			return Header{}, nil, io.EOF
		}
		return Header{}, nil, fmt.Errorf("pcap: reading record header: %w", err)
	}
	h := r.record(rec[:])
	if uint(h.CaptureLength) > MaxSnapLen {
		return Header{}, nil, fmt.Errorf("pcap: capture length %d exceeds limit", h.CaptureLength)
	}
	if cap(r.buf) < h.CaptureLength {
		r.buf = make([]byte, h.CaptureLength)
	}
	data := r.buf[:h.CaptureLength]
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Header{}, nil, fmt.Errorf("pcap: reading record body: %w", err)
	}
	return h, data, nil
}

// record decodes a 16-byte record header.
func (r *Reader) record(rec []byte) Header {
	ts := time.Unix(int64(r.order.Uint32(rec[0:4])), 0)
	frac := time.Duration(r.order.Uint32(rec[4:8]))
	if r.nanos {
		ts = ts.Add(frac * time.Nanosecond)
	} else {
		ts = ts.Add(frac * time.Microsecond)
	}
	return Header{
		Timestamp:      ts,
		CaptureLength:  int(r.order.Uint32(rec[8:12])),
		OriginalLength: int(r.order.Uint32(rec[12:16])),
	}
}

// ReadInto reads the next record body into dst — the zero-allocation
// form of Next, where dst is a caller's reusable buffer filled in
// place. A record longer than dst is truncated to len(dst) (NIC
// snapshot-length semantics) and the remainder is discarded without
// allocating; the returned Header keeps the record's full
// CaptureLength so callers can count truncations. The returned n is
// the number of bytes stored in dst. io.EOF signals a clean end of
// file.
func (r *Reader) ReadInto(dst []byte) (Header, int, error) {
	n, _, _, err := r.ReadFrame(dst)
	if err != nil {
		return Header{}, 0, err
	}
	return r.record(r.rec[:]), n, nil
}

// ReadFrame is ReadInto without the timestamp, for the pooled replay's
// per-packet loop, where dst is a replay queue's frame slot: it
// returns the stored byte count n and the record's captured and
// original lengths as plain integers. A caller of ReadInto spills the
// 40-byte Header result with 8-byte stores and copies it with 16-byte
// loads, which stalls store-to-load forwarding once per record
// (DESIGN.md §13); three integers stay in registers. Errors and io.EOF
// are ReadInto's.
func (r *Reader) ReadFrame(dst []byte) (n, capLen, origLen int, err error) {
	// When the buffer holds the record header and the bytes to store —
	// every record but about one per buffer refill — parse the record
	// in place: one Peek, one copy, one Discard, instead of two
	// io.ReadFull calls. Anything else takes the reading path below,
	// whose errors are the same as Next's.
	if buf, _ := r.r.Peek(r.r.Buffered()); len(buf) >= len(r.rec) {
		capLen = int(r.order.Uint32(buf[8:12]))
		n = min(capLen, len(dst))
		if uint(capLen) <= MaxSnapLen && len(r.rec)+n <= len(buf) {
			origLen = int(r.order.Uint32(buf[12:16]))
			r.rec = [16]byte(buf)
			copy(dst[:n], buf[len(r.rec):])
			if _, err := r.r.Discard(len(r.rec) + capLen); err != nil {
				return 0, 0, 0, fmt.Errorf("pcap: discarding truncated record body: %w", err)
			}
			return n, capLen, origLen, nil
		}
	}
	if _, err := io.ReadFull(r.r, r.rec[:]); err != nil {
		if err == io.EOF {
			return 0, 0, 0, io.EOF
		}
		return 0, 0, 0, fmt.Errorf("pcap: reading record header: %w", err)
	}
	capLen = int(r.order.Uint32(r.rec[8:12]))
	if uint(capLen) > MaxSnapLen {
		return 0, 0, 0, fmt.Errorf("pcap: capture length %d exceeds limit", capLen)
	}
	n = min(capLen, len(dst))
	if _, err := io.ReadFull(r.r, dst[:n]); err != nil {
		return 0, 0, 0, fmt.Errorf("pcap: reading record body: %w", err)
	}
	if rest := capLen - n; rest > 0 {
		if _, err := r.r.Discard(rest); err != nil {
			return 0, 0, 0, fmt.Errorf("pcap: discarding truncated record body: %w", err)
		}
	}
	return n, capLen, int(r.order.Uint32(r.rec[12:16])), nil
}

// Writer encodes a pcap stream (little endian, microsecond timestamps).
type Writer struct {
	w       *bufio.Writer
	snapLen uint32
}

// NewWriter creates a writer and emits the global header.
func NewWriter(w io.Writer, linkType uint32, snapLen uint32) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	pw := &Writer{w: bw, snapLen: snapLen}
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], MagicMicroseconds)
	binary.LittleEndian.PutUint16(hdr[4:6], 2) // major
	binary.LittleEndian.PutUint16(hdr[6:8], 4) // minor
	binary.LittleEndian.PutUint32(hdr[16:20], snapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], linkType)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: writing global header: %w", err)
	}
	return pw, nil
}

// WritePacket appends one record; data longer than the snap length is
// truncated, with the original length preserved in the record header.
func (w *Writer) WritePacket(ts time.Time, data []byte, originalLen int) error {
	capLen := len(data)
	if uint32(capLen) > w.snapLen {
		capLen = int(w.snapLen)
	}
	if originalLen < len(data) {
		originalLen = len(data)
	}
	var rec [16]byte
	binary.LittleEndian.PutUint32(rec[0:4], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(capLen))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(originalLen))
	if _, err := w.w.Write(rec[:]); err != nil {
		return fmt.Errorf("pcap: writing record header: %w", err)
	}
	if _, err := w.w.Write(data[:capLen]); err != nil {
		return fmt.Errorf("pcap: writing record body: %w", err)
	}
	return nil
}

// Flush drains buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }
