package pcap_test

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/packet"
	"cocosketch/internal/pcap"
	"cocosketch/internal/trace"
)

// partitionTrace builds a small in-memory capture for the partition
// and ReadInto tests.
func partitionTrace(t *testing.T, n int) []byte {
	t.Helper()
	tr := trace.CAIDALike(n, 7)
	var buf bytes.Buffer
	if err := tr.WritePCAP(&buf, 256); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPartitionRSSConservesAndAgrees checks the two properties replay
// correctness rests on: no packet is lost or duplicated, and every
// packet lands on exactly the queue flowkey.RSSIndex names for its
// key — in source order within each queue.
func TestPartitionRSSConservesAndAgrees(t *testing.T) {
	const n, queues, seed = 5000, 4, uint64(11)
	data := partitionTrace(t, n)
	qs, err := pcap.PartitionRSS(bytes.NewReader(data), queues, seed)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, q := range qs {
		total += q.Packets()
	}
	if total != n {
		t.Fatalf("partition holds %d packets, source had %d", total, n)
	}

	// Expected per-queue key sequences from a straight decode pass.
	want := make([][]flowkey.FiveTuple, queues)
	pr, err := pcap.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, frame, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		key, ok := packet.ExtractFiveTuple(frame)
		q := 0
		if ok {
			q = flowkey.RSSIndex(key, seed, queues)
		}
		want[q] = append(want[q], key)
	}

	for i, q := range qs {
		r, err := q.Open()
		if err != nil {
			t.Fatal(err)
		}
		var got []flowkey.FiveTuple
		for {
			_, frame, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			key, _ := packet.ExtractFiveTuple(frame)
			got = append(got, key)
		}
		if len(got) != len(want[i]) {
			t.Fatalf("queue %d: %d packets, want %d", i, len(got), len(want[i]))
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("queue %d packet %d: key %v, want %v", i, j, got[j], want[i][j])
			}
		}
	}
}

// TestPartitionRSSOneQueueIsIdentity checks that a 1-queue partition
// replays the identical key sequence as the source stream (the pin
// behind "1-queue pooled replay ≡ single-reader decode").
func TestPartitionRSSOneQueueIsIdentity(t *testing.T) {
	data := partitionTrace(t, 2000)
	qs, err := pcap.PartitionRSS(bytes.NewReader(data), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	src, err := trace.FromPCAP(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	r, err := qs[0].Open()
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for {
		_, frame, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		key, ok := packet.ExtractFiveTuple(frame)
		if !ok {
			continue
		}
		if key != src.Packets[i].Key {
			t.Fatalf("packet %d: key %v, want %v", i, key, src.Packets[i].Key)
		}
		i++
	}
	if i != len(src.Packets) {
		t.Fatalf("replayed %d packets, want %d", i, len(src.Packets))
	}
}

// TestPartitionRSSErrors covers the rejection paths.
func TestPartitionRSSErrors(t *testing.T) {
	data := partitionTrace(t, 10)
	if _, err := pcap.PartitionRSS(bytes.NewReader(data), 0, 1); err == nil {
		t.Fatal("queues=0 accepted")
	}
	if _, err := pcap.PartitionRSS(bytes.NewReader(nil), 2, 1); err == nil {
		t.Fatal("empty stream accepted")
	}
}

// TestReadIntoMatchesNext replays one stream through Next and another
// through ReadInto into an oversized buffer: headers and bytes must
// agree record for record.
func TestReadIntoMatchesNext(t *testing.T) {
	data := partitionTrace(t, 500)
	a, err := pcap.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	b, err := pcap.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for {
		ha, fa, errA := a.Next()
		hb, n, errB := b.ReadInto(buf)
		if (errA == io.EOF) != (errB == io.EOF) {
			t.Fatalf("EOF divergence: %v vs %v", errA, errB)
		}
		if errA == io.EOF {
			break
		}
		if errA != nil || errB != nil {
			t.Fatalf("errors: %v vs %v", errA, errB)
		}
		if ha != hb {
			t.Fatalf("headers differ: %+v vs %+v", ha, hb)
		}
		if n != len(fa) || !bytes.Equal(fa, buf[:n]) {
			t.Fatalf("bodies differ (%d vs %d bytes)", len(fa), n)
		}
	}
}

// TestReadIntoTruncates checks snaplen-style truncation into a small
// destination: the stored prefix matches, CaptureLength reports the
// full record, and the stream stays aligned for subsequent records.
func TestReadIntoTruncates(t *testing.T) {
	data := partitionTrace(t, 50)
	a, _ := pcap.NewReader(bytes.NewReader(data))
	b, _ := pcap.NewReader(bytes.NewReader(data))
	small := make([]byte, 60)
	for {
		ha, fa, errA := a.Next()
		hb, n, errB := b.ReadInto(small)
		if errA == io.EOF {
			if errB != io.EOF {
				t.Fatalf("truncating reader did not reach EOF: %v", errB)
			}
			break
		}
		if errA != nil || errB != nil {
			t.Fatalf("errors: %v vs %v", errA, errB)
		}
		if hb.CaptureLength != ha.CaptureLength {
			t.Fatalf("CaptureLength %d, want %d", hb.CaptureLength, ha.CaptureLength)
		}
		wantN := len(fa)
		if wantN > len(small) {
			wantN = len(small)
		}
		if n != wantN || !bytes.Equal(fa[:wantN], small[:n]) {
			t.Fatalf("truncated body mismatch: %d bytes, want %d", n, wantN)
		}
	}
}

// TestReadIntoNoAllocs pins the steady-state record read at zero
// allocations per packet.
func TestReadIntoNoAllocs(t *testing.T) {
	data := partitionTrace(t, 2000)
	r, err := pcap.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if n := testing.AllocsPerRun(1000, func() {
		if _, _, err := r.ReadInto(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ReadInto allocates %.1f times per run, want 0", n)
	}
}

// TestReadFrameNoAllocs pins the replay's view read at zero
// allocations per packet.
func TestReadFrameNoAllocs(t *testing.T) {
	data := partitionTrace(t, 2000)
	r, err := pcap.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, _, _, err := r.ReadFrame(192); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ReadFrame allocates %.1f times per run, want 0", n)
	}
}

// TestPartitionRSSHoldsOneCopy checks that a partition costs about one
// copy of the capture: queue streams that grew by doubling would
// allocate several.
func TestPartitionRSSHoldsOneCopy(t *testing.T) {
	data := partitionTrace(t, 50000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	qs, err := pcap.PartitionRSS(bytes.NewReader(data), 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(len(data))*5/4 {
		t.Fatalf("4-queue partition of a %d-byte capture allocated %d bytes", len(data), alloc)
	}
	runtime.KeepAlive(qs)
}
