package pcap

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"
)

// FuzzReader exercises the pcap parser with arbitrary bytes: it must
// never panic and never allocate unboundedly, only return errors.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// ReadInto and ReadFrame with room for any record must return
		// what Next returns, errors and io.EOF included.
		into, _ := NewReader(bytes.NewReader(data))
		frame, _ := NewReader(bytes.NewReader(data))
		slot := make([]byte, MaxSnapLen)
		for i := 0; i < 1000; i++ {
			hdr, body, err := r.Next()
			hdrInto, n, errInto := into.ReadInto(slot)
			same := func(e error) bool { return fmt.Sprint(err) == fmt.Sprint(e) && (err == io.EOF) == (e == io.EOF) }
			if !same(errInto) {
				t.Fatalf("record %d: Next error %v, ReadInto error %v", i, err, errInto)
			}
			if err == nil && (hdr != hdrInto || !bytes.Equal(body, slot[:n])) {
				t.Fatalf("record %d: ReadInto (%+v, %d bytes) differs from Next (%+v, %d bytes)", i, hdrInto, n, hdr, len(body))
			}
			n, capLen, origLen, errFrame := frame.ReadFrame(slot)
			if !same(errFrame) {
				t.Fatalf("record %d: Next error %v, ReadFrame error %v", i, err, errFrame)
			}
			if err != nil {
				return
			}
			if capLen != hdr.CaptureLength || origLen != hdr.OriginalLength || !bytes.Equal(body, slot[:n]) {
				t.Fatalf("record %d: ReadFrame (%d/%d, %d bytes) differs from Next (%+v, %d bytes)", i, capLen, origLen, n, hdr, len(body))
			}
			if len(body) > MaxSnapLen {
				t.Fatalf("record exceeds MaxSnapLen: %d", len(body))
			}
		}
	})
}
