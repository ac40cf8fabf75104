package report_test

import (
	"fmt"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/report"
)

// Example walks one report by hand: seal a fat epoch sketch into a
// 1/8-size stage, encode it, and decode it at a collector that knows
// nothing but the payload, getting the sealed stage back bit for bit
// with the shrink it was cut at. This is the exchange
// `cocoagent -report-shrink 8` performs per epoch.
func Example() {
	cfg := core.Config{Arrays: 2, BucketsPerArray: 256, Seed: 9}
	codec, err := report.New[flowkey.FiveTuple](cfg, 8)
	if err != nil {
		panic(err)
	}
	fat := core.NewBasic[flowkey.FiveTuple](cfg)
	for i := 0; i < 20_000; i++ {
		fat.Insert(flowkey.FiveTuple{SrcPort: uint16(i % 300), DstPort: 443, Proto: 6}, 1)
	}
	stage, err := codec.Seal(fat)
	if err != nil {
		panic(err)
	}
	blob, err := codec.Encode(0, stage)
	if err != nil {
		panic(err)
	}
	decoded, shrink, err := report.Decode(0, blob, cfg.Arrays*cfg.BucketsPerArray, flowkey.FiveTupleFromBytes)
	if err != nil {
		panic(err)
	}
	fmt.Printf("lossless=%v shrink=%d mass=%d\n", decoded.Equal(stage), shrink, decoded.SumValues())
	fmt.Println("5× smaller than a snapshot:", 5*len(blob) < fat.MarshaledSize())
	// Output:
	// lossless=true shrink=8 mass=20000
	// 5× smaller than a snapshot: true
}
