package pcap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
	"testing/iotest"
	"time"
)

// refReader is an independent reader of the classic format built on
// io.ReadFull over an unbuffered source: the reference the Reader's
// block-buffered views, copies and errors are checked against.
type refReader struct {
	r     io.Reader
	order binary.ByteOrder
	nanos bool
}

func newRefReader(r io.Reader) (*refReader, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	ref := &refReader{r: r}
	magicLE, magicBE := binary.LittleEndian.Uint32(hdr[0:4]), binary.BigEndian.Uint32(hdr[0:4])
	switch {
	case magicLE == MagicMicroseconds:
		ref.order = binary.LittleEndian
	case magicLE == MagicNanoseconds:
		ref.order, ref.nanos = binary.LittleEndian, true
	case magicBE == MagicMicroseconds:
		ref.order = binary.BigEndian
	case magicBE == MagicNanoseconds:
		ref.order, ref.nanos = binary.BigEndian, true
	default:
		return nil, fmt.Errorf("%w: %#08x", ErrBadMagic, magicLE)
	}
	if major := ref.order.Uint16(hdr[4:6]); major != 2 {
		return nil, fmt.Errorf("pcap: unsupported version %d", major)
	}
	return ref, nil
}

func (r *refReader) next() (Header, []byte, error) {
	var rec [16]byte
	if _, err := io.ReadFull(r.r, rec[:]); err != nil {
		if err == io.EOF {
			return Header{}, nil, io.EOF
		}
		return Header{}, nil, fmt.Errorf("pcap: reading record header: %w", err)
	}
	ts := time.Unix(int64(r.order.Uint32(rec[0:4])), 0)
	frac := time.Duration(r.order.Uint32(rec[4:8]))
	if r.nanos {
		ts = ts.Add(frac * time.Nanosecond)
	} else {
		ts = ts.Add(frac * time.Microsecond)
	}
	capLen := r.order.Uint32(rec[8:12])
	if capLen > MaxSnapLen {
		return Header{}, nil, fmt.Errorf("pcap: capture length %d exceeds limit", capLen)
	}
	h := Header{Timestamp: ts, CaptureLength: int(capLen), OriginalLength: int(r.order.Uint32(rec[12:16]))}
	data := make([]byte, capLen)
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Header{}, nil, fmt.Errorf("pcap: reading record body: %w", err)
	}
	return h, data, nil
}

// readResult is one read through any of the Reader's three methods.
type readResult struct {
	hdr  Header // Timestamp is zero for ReadFrame, which returns none
	body []byte
	err  error
}

// readMethod reads records one way: limit bounds the stored bytes it
// returns (MaxSnapLen: all of them), and lazy marks a method that skips
// the rest of a cut record at the next call instead of at once.
type readMethod struct {
	name  string
	limit int
	lazy  bool
	read  func(r *Reader) readResult
}

func readMethods() []readMethod {
	slot, small := make([]byte, MaxSnapLen), make([]byte, 60)
	into := func(dst []byte) func(*Reader) readResult {
		return func(r *Reader) readResult {
			h, n, err := r.ReadInto(dst)
			return readResult{h, dst[:n], err}
		}
	}
	frame := func(limit int) func(*Reader) readResult {
		return func(r *Reader) readResult {
			f, capLen, origLen, err := r.ReadFrame(limit)
			return readResult{Header{CaptureLength: capLen, OriginalLength: origLen}, f, err}
		}
	}
	return []readMethod{
		{"Next", MaxSnapLen, false, func(r *Reader) readResult {
			h, b, err := r.Next()
			return readResult{h, b, err}
		}},
		{"ReadInto", MaxSnapLen, false, into(slot)},
		{"ReadFrame", MaxSnapLen, false, frame(MaxSnapLen)},
		{"ReadInto/60", len(small), false, into(small)},
		{"ReadFrame/60", len(small), true, frame(len(small))},
	}
}

// readSources wrap a capture in the short and final-(n > 0, err) reads
// a source may make.
var readSources = []struct {
	name string
	wrap func([]byte) io.Reader
}{
	{"bytes", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"one-byte", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
	{"half", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
	{"data-err", func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) }},
}

// checkAgainstRef reads data through every method over every source
// and compares each record, and the error that ends the stream, with
// the reference reader's. Methods with room for any record must match
// it exactly, errors included. A truncating method returns each
// record's prefix and fails where the reference fails, io.EOF where it
// reads io.EOF — except that a lazy one may read a cut record whose
// rest is missing and fail at the next call instead.
func checkAgainstRef(t *testing.T, data []byte) {
	t.Helper()
	const maxRecords = 1000
	same := func(a, b error) bool { return fmt.Sprint(a) == fmt.Sprint(b) && (a == io.EOF) == (b == io.EOF) }
	var (
		want    []readResult
		wantErr error
	)
	ref, err := newRefReader(bytes.NewReader(data))
	for err == nil && len(want) < maxRecords {
		h, b, rerr := ref.next()
		if rerr != nil {
			wantErr = rerr
			break
		}
		want = append(want, readResult{hdr: h, body: b})
	}
	methods := readMethods()
	for _, src := range readSources {
		for _, m := range methods {
			r, rerr := NewReader(src.wrap(data))
			if !same(err, rerr) {
				t.Fatalf("%s: NewReader error %v, reference %v", src.name, rerr, err)
			}
			if err != nil {
				continue
			}
			for i, w := range want {
				got := m.read(r)
				stored := w.body[:min(len(w.body), m.limit)]
				if got.err != nil || got.hdr.CaptureLength != w.hdr.CaptureLength || got.hdr.OriginalLength != w.hdr.OriginalLength ||
					!got.hdr.Timestamp.IsZero() && !got.hdr.Timestamp.Equal(w.hdr.Timestamp) || !bytes.Equal(got.body, stored) {
					t.Fatalf("%s %s record %d: %+v with %d bytes (error %v), reference %+v with %d",
						src.name, m.name, i, got.hdr, len(got.body), got.err, w.hdr, len(stored))
				}
			}
			if wantErr == nil {
				continue // the reference stopped at maxRecords
			}
			got := m.read(r)
			if m.lazy && got.err == nil && wantErr != io.EOF {
				got = m.read(r)
				if got.err == nil || got.err == io.EOF {
					t.Fatalf("%s %s: read on past the reference's error %v (error %v)", src.name, m.name, wantErr, got.err)
				}
				continue
			}
			if got.err == nil || (got.err == io.EOF) != (wantErr == io.EOF) || m.limit == MaxSnapLen && !same(got.err, wantErr) {
				t.Fatalf("%s %s after %d records: error %v, reference %v", src.name, m.name, len(want), got.err, wantErr)
			}
		}
	}
}

// captureBytes writes records of the given sizes (each stored whole,
// original length one more) into a little-endian µs capture.
func captureBytes(sizes ...int) []byte {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, LinkTypeEthernet, MaxSnapLen)
	for i, n := range sizes {
		body := make([]byte, n)
		for j := range body {
			body[j] = byte(i + j)
		}
		_ = w.WritePacket(time.Unix(int64(i), int64(i)*1000), body, n+1)
	}
	_ = w.Flush()
	return buf.Bytes()
}

// bigEndianNanos re-encodes a little-endian µs capture as big-endian
// with the nanosecond magic, the other byte order and resolution.
func bigEndianNanos(le []byte) []byte {
	be := append([]byte(nil), le...)
	swap := func(b []byte) { binary.BigEndian.PutUint32(b, binary.LittleEndian.Uint32(b)) }
	binary.LittleEndian.PutUint32(be[0:4], MagicNanoseconds)
	swap(be[0:4])
	be[4], be[5], be[6], be[7] = be[5], be[4], be[7], be[6]
	swap(be[16:20])
	swap(be[20:24])
	for off := 24; off+recLen <= len(be); {
		for f := 0; f < recLen; f += 4 {
			swap(be[off+f : off+f+4])
		}
		off += recLen + int(binary.BigEndian.Uint32(be[off+8:off+12]))
	}
	return be
}

// readerSeeds are captures that take each of the Reader's paths: a
// record header and a record body straddling the block boundary, a
// record that just fits the block and one a byte longer, a record at
// MaxSnapLen, the other byte order and resolution,
// and trailing records cut in the header, in the first 60 stored bytes
// and after them.
func readerSeeds() [][]byte {
	// The first record's body puts the second record's start k bytes
	// before the end of the first block.
	firstBody := func(k int) int { return blockSize - 24 - recLen - k }
	small := captureBytes(8, 60, 300)
	return [][]byte{
		captureBytes(firstBody(8), 60, 60),
		captureBytes(firstBody(20), 60, 60),
		captureBytes(60, blockSize-recLen, blockSize-recLen+1, 60),
		captureBytes(MaxSnapLen, 20),
		bigEndianNanos(captureBytes(8, 60, blockSize, 60)),
		small[:24+recLen+8+7],
		small[:len(small)-300+30],
		small[:len(small)-10],
	}
}

// FuzzReader exercises the pcap parser with arbitrary bytes: it must
// never panic and never allocate unboundedly, and every read method,
// over every source, must return what the reference reader returns.
func FuzzReader(f *testing.F) {
	// Seed with a valid single-record file and a few corruptions.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, LinkTypeEthernet, 256)
	_ = w.WritePacket(time.Unix(1, 2), []byte{1, 2, 3, 4, 5, 6, 7, 8}, 8)
	_ = w.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:20])
	f.Add([]byte{})
	mutated := append([]byte{}, valid...)
	mutated[0] ^= 0xFF
	f.Add(mutated)
	for _, seed := range readerSeeds() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstRef(t, data) })
}
