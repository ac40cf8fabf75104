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

// blockSize is the Reader's block buffer: the source is read a block at
// a time, and every record that fits in the block is parsed where it
// lies.
const blockSize = 1 << 16

// recLen is the size of a record header.
const recLen = 16

// maxEmptyReads bounds the consecutive (0, nil) reads a Reader accepts
// from its source before it fails with io.ErrNoProgress, as
// bufio.Reader does.
const maxEmptyReads = 100

// Reader decodes a pcap stream. It reads its source into its own block
// buffer and parses each record where it lies: Next and ReadFrame hand
// out views of that buffer, so a record reaches its caller without a
// copy. Only a record longer than the buffer is assembled in a scratch
// slice.
type Reader struct {
	src io.Reader
	// buf[off:end] holds the bytes read from src and not yet consumed.
	buf      []byte
	off, end int
	// err is the error src returned, reported once the buffered bytes
	// run out, and again on every later read.
	err error
	// skip counts the bytes of the last record that the caller's limit
	// left unread. The next call discards them, so a refill never
	// overwrites a view the previous call returned.
	skip     int
	big      bool // big-endian capture
	nanos    bool // nanosecond timestamps
	linkType uint32
	snapLen  uint32
	// long holds a record whose stored bytes do not fit in buf.
	long []byte
}

// NewReader parses the global header and returns a reader positioned at
// the first record.
func NewReader(r io.Reader) (*Reader, error) {
	const globalLen = 24
	pr := &Reader{src: r, buf: make([]byte, blockSize)}
	if err := pr.fill(globalLen); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", short(err, pr.end))
	}
	hdr := pr.buf[:globalLen]
	pr.off = globalLen
	switch magic := binary.LittleEndian.Uint32(hdr[0:4]); {
	case magic == MagicMicroseconds:
	case magic == MagicNanoseconds:
		pr.nanos = true
	case binary.BigEndian.Uint32(hdr[0:4]) == MagicMicroseconds:
		pr.big = true
	case binary.BigEndian.Uint32(hdr[0:4]) == MagicNanoseconds:
		pr.big, pr.nanos = true, true
	default:
		return nil, fmt.Errorf("%w: %#08x", ErrBadMagic, magic)
	}
	major := binary.LittleEndian.Uint16(hdr[4:6])
	if pr.big {
		major = binary.BigEndian.Uint16(hdr[4:6])
	}
	if major != 2 {
		return nil, fmt.Errorf("pcap: unsupported version %d", major)
	}
	pr.snapLen = pr.u32(hdr[16:20])
	pr.linkType = pr.u32(hdr[20:24])
	return pr, nil
}

// LinkType returns the capture's link type (LinkTypeEthernet for the
// traces this repo generates).
func (r *Reader) LinkType() uint32 { return r.linkType }

// SnapLen returns the capture's snapshot length.
func (r *Reader) SnapLen() uint32 { return r.snapLen }

// u32 decodes a header field in the capture's byte order.
func (r *Reader) u32(b []byte) uint32 {
	if r.big {
		return binary.BigEndian.Uint32(b)
	}
	return binary.LittleEndian.Uint32(b)
}

// Next returns the next record. The returned data slice is reused by
// subsequent calls; copy it to retain. io.EOF signals a clean end of
// file.
func (r *Reader) Next() (Header, []byte, error) {
	rec, data, err := r.record(MaxSnapLen)
	if err != nil {
		return Header{}, nil, err
	}
	return r.header(rec), data, nil
}

// header decodes a 16-byte record header.
func (r *Reader) header(rec []byte) Header {
	ts := time.Unix(int64(r.u32(rec[0:4])), 0)
	frac := time.Duration(r.u32(rec[4:8]))
	if r.nanos {
		ts = ts.Add(frac * time.Nanosecond)
	} else {
		ts = ts.Add(frac * time.Microsecond)
	}
	return Header{
		Timestamp:      ts,
		CaptureLength:  int(r.u32(rec[8:12])),
		OriginalLength: int(r.u32(rec[12:16])),
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
	rec, frame, err := r.record(len(dst))
	if err != nil {
		return Header{}, 0, err
	}
	h, n := r.header(rec), copy(dst, frame)
	if err := r.discard(); err != nil {
		return Header{}, 0, err
	}
	return h, n, nil
}

// ReadFrame is the pooled replay's per-packet read: it returns the
// next record's stored bytes, at most limit (≥ 0) of them, as a view
// into the Reader's block buffer, with the record's captured and
// original lengths as plain integers. The view is valid until the next
// call on the Reader. A record longer than limit is cut NIC
// snapshot-length style (capLen > len(frame) tells the caller so); the
// rest of it is skipped at the next call, which reports any error that
// skip meets. Other errors and io.EOF are Next's.
//
// A Header result is spilled with 8-byte stores and copied with
// 16-byte loads, which stalls store-to-load forwarding once per record
// (DESIGN.md §13); a slice and two integers stay in registers.
func (r *Reader) ReadFrame(limit int) (frame []byte, capLen, origLen int, err error) {
	rec, frame, err := r.record(limit)
	if err != nil {
		return nil, 0, 0, err
	}
	return frame, int(r.u32(rec[8:12])), int(r.u32(rec[12:16])), nil
}

// record skips what the last call left of its record, then returns
// views of the next record's header and of its first min(capture
// length, limit) stored bytes.
func (r *Reader) record(limit int) (rec, frame []byte, err error) {
	// Every record but about one per block is buffered whole: parse it
	// in place.
	if off := r.off + r.skip; off+recLen <= r.end {
		rec = r.buf[off : off+recLen]
		capLen := r.u32(rec[8:12])
		body := off + recLen
		if n := min(int(capLen), limit); capLen <= MaxSnapLen && body+n <= r.end {
			r.off, r.skip = body+n, int(capLen)-n
			return rec, r.buf[body : body+n], nil
		}
	}
	return r.readRecord(limit)
}

// readRecord is record's path for a record that is not buffered whole:
// it refills the block buffer, or assembles a record too long for it.
func (r *Reader) readRecord(limit int) (rec, frame []byte, err error) {
	if err := r.discard(); err != nil {
		return nil, nil, err
	}
	if err := r.fill(recLen); err != nil {
		if err = short(err, r.end-r.off); err == io.EOF {
			return nil, nil, io.EOF
		}
		return nil, nil, fmt.Errorf("pcap: reading record header: %w", err)
	}
	capLen := r.u32(r.buf[r.off+8 : r.off+12])
	if capLen > MaxSnapLen {
		return nil, nil, fmt.Errorf("pcap: capture length %d exceeds limit", capLen)
	}
	n := min(int(capLen), limit)
	if recLen+n > len(r.buf) {
		return r.readLong(n, int(capLen))
	}
	if err := r.fill(recLen + n); err != nil {
		return nil, nil, fmt.Errorf("pcap: reading record body: %w", short(err, r.end-r.off-recLen))
	}
	body := r.off + recLen
	rec, frame = r.buf[r.off:body], r.buf[body:body+n]
	r.off, r.skip = body+n, int(capLen)-n
	return rec, frame, nil
}

// readLong assembles a record whose n stored bytes do not fit in the
// block buffer, header included, in r.long.
func (r *Reader) readLong(n, capLen int) (rec, frame []byte, err error) {
	if cap(r.long) < recLen+n {
		r.long = make([]byte, recLen+n)
	}
	long := r.long[:recLen+n]
	for got := 0; got < len(long); {
		if err := r.fill(1); err != nil {
			return nil, nil, fmt.Errorf("pcap: reading record body: %w", short(err, got-recLen))
		}
		k := copy(long[got:], r.buf[r.off:r.end])
		got += k
		r.off += k
	}
	r.skip = capLen - n
	return long[:recLen], long[recLen:], nil
}

// discard skips the bytes of the last record that its caller's limit
// left unread.
func (r *Reader) discard() error {
	for r.skip > 0 {
		if err := r.fill(1); err != nil {
			return fmt.Errorf("pcap: discarding truncated record body: %w", err)
		}
		k := min(r.skip, r.end-r.off)
		r.off += k
		r.skip -= k
	}
	return nil
}

// fill reads the source until at least need bytes are buffered (need
// ≤ len(r.buf)), first moving the buffered bytes to the front of the
// block. It returns the source's error if the source ends first.
func (r *Reader) fill(need int) error {
	if r.end-r.off >= need {
		return nil
	}
	r.end = copy(r.buf, r.buf[r.off:r.end])
	r.off = 0
	for empty := 0; r.end < need; {
		if r.err != nil {
			return r.err
		}
		n, err := r.src.Read(r.buf[r.end:])
		r.end += n
		r.err = err
		switch {
		case n > 0:
			empty = 0
		case err == nil:
			if empty++; empty == maxEmptyReads {
				r.err = io.ErrNoProgress
			}
		}
	}
	return nil
}

// short reports a read that ended early the way io.ReadFull does,
// given the got bytes of the item that were read: io.EOF before any of
// them stays io.EOF, io.EOF after some becomes io.ErrUnexpectedEOF, and
// any other error passes through.
func short(err error, got int) error {
	if err == io.EOF && got > 0 {
		return io.ErrUnexpectedEOF
	}
	return err
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
