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
	rec      [16]byte // record-header scratch; a local would escape through io.ReadFull
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
	sec := r.order.Uint32(rec[0:4])
	frac := r.order.Uint32(rec[4:8])
	capLen := r.order.Uint32(rec[8:12])
	origLen := r.order.Uint32(rec[12:16])
	if capLen > MaxSnapLen {
		return Header{}, nil, fmt.Errorf("pcap: capture length %d exceeds limit", capLen)
	}
	if cap(r.buf) < int(capLen) {
		r.buf = make([]byte, capLen)
	}
	data := r.buf[:capLen]
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Header{}, nil, fmt.Errorf("pcap: reading record body: %w", err)
	}
	ts := time.Unix(int64(sec), 0)
	if r.nanos {
		ts = ts.Add(time.Duration(frac) * time.Nanosecond)
	} else {
		ts = ts.Add(time.Duration(frac) * time.Microsecond)
	}
	return Header{
		Timestamp:      ts,
		CaptureLength:  int(capLen),
		OriginalLength: int(origLen),
	}, data, nil
}

// ReadInto reads the next record body into dst — the zero-allocation
// form of Next used by the pooled replay pipeline, where dst is a
// replay queue's frame slot filled in place. A record longer than dst is
// truncated to len(dst) (NIC snapshot-length semantics) and the
// remainder is discarded without allocating; the returned Header keeps
// the record's full CaptureLength so callers can count truncations.
// The returned n is the number of bytes stored in dst. io.EOF signals
// a clean end of file.
func (r *Reader) ReadInto(dst []byte) (Header, int, error) {
	if _, err := io.ReadFull(r.r, r.rec[:]); err != nil {
		if err == io.EOF {
			return Header{}, 0, io.EOF
		}
		return Header{}, 0, fmt.Errorf("pcap: reading record header: %w", err)
	}
	sec := r.order.Uint32(r.rec[0:4])
	frac := r.order.Uint32(r.rec[4:8])
	capLen := r.order.Uint32(r.rec[8:12])
	origLen := r.order.Uint32(r.rec[12:16])
	if capLen > MaxSnapLen {
		return Header{}, 0, fmt.Errorf("pcap: capture length %d exceeds limit", capLen)
	}
	n := int(capLen)
	if n > len(dst) {
		n = len(dst)
	}
	if _, err := io.ReadFull(r.r, dst[:n]); err != nil {
		return Header{}, 0, fmt.Errorf("pcap: reading record body: %w", err)
	}
	if rest := int(capLen) - n; rest > 0 {
		if _, err := r.r.Discard(rest); err != nil {
			return Header{}, 0, fmt.Errorf("pcap: discarding truncated record body: %w", err)
		}
	}
	ts := time.Unix(int64(sec), 0)
	if r.nanos {
		ts = ts.Add(time.Duration(frac) * time.Nanosecond)
	} else {
		ts = ts.Add(time.Duration(frac) * time.Microsecond)
	}
	return Header{
		Timestamp:      ts,
		CaptureLength:  int(capLen),
		OriginalLength: int(origLen),
	}, n, nil
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
