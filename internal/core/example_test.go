package core_test

import (
	"fmt"
	"sort"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
)

// Example shows the minimal CocoSketch lifecycle: one sketch on the
// full key, per-packet inserts, decode, and a partial-key aggregation.
func Example() {
	sk := core.NewBasic[flowkey.FiveTuple](core.Config{
		Arrays: 2, BucketsPerArray: 1024, Seed: 42,
	})

	flows := []struct {
		key     flowkey.FiveTuple
		packets int
	}{
		{flowkey.FiveTuple{SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 9}, SrcPort: 1111, DstPort: 80, Proto: 6}, 500},
		{flowkey.FiveTuple{SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 9}, SrcPort: 2222, DstPort: 443, Proto: 6}, 300},
		{flowkey.FiveTuple{SrcIP: [4]byte{10, 0, 0, 2}, DstIP: [4]byte{10, 0, 0, 9}, SrcPort: 3333, DstPort: 80, Proto: 6}, 100},
	}
	for _, f := range flows {
		for i := 0; i < f.packets; i++ {
			sk.Insert(f.key, 1)
		}
	}

	// Partial key "SrcIP": aggregate the decoded full-key table.
	bySrc := map[string]uint64{}
	for k, v := range sk.Decode() {
		bySrc[flowkey.IPv4(k.SrcIP).String()] += v
	}
	keys := make([]string, 0, len(bySrc))
	for k := range bySrc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s %d\n", k, bySrc[k])
	}
	// Output:
	// 10.0.0.1 800
	// 10.0.0.2 100
}

// ExampleBasic_Merge combines two measurement shards (e.g. from two
// dataplane threads) without losing estimate quality.
func ExampleBasic_Merge() {
	cfg := core.Config{Arrays: 2, BucketsPerArray: 512, Seed: 7}
	a := core.NewBasic[flowkey.FiveTuple](cfg)
	b := core.NewBasic[flowkey.FiveTuple](cfg)

	k := flowkey.FiveTuple{SrcIP: [4]byte{1, 1, 1, 1}, Proto: 6}
	a.Insert(k, 40)
	b.Insert(k, 60)

	if err := a.Merge(b); err != nil {
		panic(err)
	}
	fmt.Println(a.Query(k))
	// Output: 100
}
