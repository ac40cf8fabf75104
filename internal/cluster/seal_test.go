package cluster

// Cluster seal path: sealing an epoch gathered across backends into
// the query-serving ring must be bit-identical to sealing the same
// reports from a single collector — the scatter is invisible.

import (
	"errors"
	"net"
	"reflect"
	"testing"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/netwide"
	"cocosketch/internal/window"
)

func TestClusterSealMatchesSingleCollector(t *testing.T) {
	c1, addr1, stop1 := tcpBackend(t, clusterCfg)
	defer stop1()
	c2, addr2, stop2 := tcpBackend(t, clusterCfg)
	defer stop2()
	c0, addr0, stop0 := tcpBackend(t, clusterCfg)
	defer stop0()

	// Each agent runs twice on identical observations: one instance
	// scatters its epochs across the two backends, the twin reports
	// everything to the single reference collector. Sealing is
	// deterministic, so the twin's shards are byte-identical.
	scatter := []string{addr1, addr2}
	const nEpochs = 3
	for _, id := range []uint16{1, 2, 3} {
		scattered := netwide.NewAgent(id, clusterCfg)
		single := netwide.NewAgent(id, clusterCfg)
		conn0, err := net.Dial("tcp", addr0)
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < nEpochs; e++ {
			for p := 0; p < 40; p++ {
				k := flowkey.FiveTuple{SrcPort: id, DstPort: uint16(p), Proto: 17}
				scattered.Observe(k, uint64(1+p%5))
				single.Observe(k, uint64(1+p%5))
			}
			conn, err := net.Dial("tcp", scatter[(int(id)+e)%len(scatter)])
			if err != nil {
				t.Fatal(err)
			}
			scattered.EndEpoch()
			if err := scattered.Flush(conn); err != nil {
				t.Fatalf("scattered agent %d epoch %d: %v", id, e, err)
			}
			conn.Close()
			single.EndEpoch()
			if err := single.Flush(conn0); err != nil {
				t.Fatalf("single agent %d epoch %d: %v", id, e, err)
			}
		}
		conn0.Close()
	}

	ringCluster := window.NewRing(8, clusterCfg)
	ringSingle := window.NewRing(8, clusterCfg)
	for e := uint32(0); e < nEpochs; e++ {
		if err := SealEpochInto(ringCluster, e, c1, c2); err != nil {
			t.Fatalf("cluster seal epoch %d: %v", e, err)
		}
		if err := c0.SealEpochInto(ringSingle, e); err != nil {
			t.Fatalf("single seal epoch %d: %v", e, err)
		}
	}

	mask := flowkey.MaskFields(flowkey.FieldSrcPort)
	for from := uint64(0); from < nEpochs; from++ {
		for to := from + 1; to <= nEpochs; to++ {
			rg := window.Range{From: from, To: to}
			a, err := ringCluster.Window(rg)
			if err != nil {
				t.Fatalf("cluster window %v: %v", rg, err)
			}
			b, err := ringSingle.Window(rg)
			if err != nil {
				t.Fatalf("single window %v: %v", rg, err)
			}
			if !reflect.DeepEqual(a.FullTable(), b.FullTable()) {
				t.Fatalf("window %v: cluster and single-collector rings disagree", rg)
			}
			ga, err := ringCluster.GroupBy(rg, mask)
			if err != nil {
				t.Fatal(err)
			}
			gb, err := ringSingle.GroupBy(rg, mask)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ga, gb) {
				t.Fatalf("window %v: cluster GroupBy differs from single-collector", rg)
			}
		}
	}

	// An epoch no backend holds is ErrNoEpoch, and nothing is sealed.
	if err := SealEpochInto(ringCluster, 99, c1, c2); !errors.Is(err, netwide.ErrNoEpoch) {
		t.Fatalf("seal of absent epoch: err = %v, want netwide.ErrNoEpoch", err)
	}
	if _, to, _ := ringCluster.Bounds(); to != nEpochs {
		t.Fatalf("ring advanced past the sealed epochs: to = %d", to)
	}
}
