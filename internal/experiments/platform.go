package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/fpga"
	"cocosketch/internal/pcap"
	"cocosketch/internal/rmt"
	"cocosketch/internal/shard"
	"cocosketch/internal/trace"
)

func init() {
	register("table2", runTable2)
	register("fig15a", runFig15a)
	register("fig15b", runFig15b)
	register("fig15c", runFig15c)
	register("fig15d", runFig15d)
}

// runTable2 reproduces Table 2: per-resource utilization of one
// Count-Min and one R-HHH instance on the modeled Tofino, plus the
// derived instance limits.
func runTable2(RunConfig) (*TableResult, error) {
	pl := rmt.Tofino()
	cm, err := pl.Place(rmt.CountMinProgram())
	if err != nil {
		return nil, err
	}
	rh, err := pl.Place(rmt.RHHHProgram())
	if err != nil {
		return nil, err
	}
	out := &TableResult{
		ID:      "table2",
		Title:   "Resource usage of one single-key sketch on the modeled Tofino",
		Columns: []string{"resource", "Count-Min", "R-HHH"},
		Notes: []string{
			"bottleneck is the hash distribution unit; max instances below",
			"paper bounds instances by resource totals (4); stage-level placement is stricter for R-HHH (3)",
		},
	}
	ucm, urh := cm.Utilization(), rh.Utilization()
	for _, r := range rmt.Resources() {
		out.AddRow(r.String(),
			fmt.Sprintf("%.2f%%", ucm[r]*100),
			fmt.Sprintf("%.2f%%", urh[r]*100))
	}
	out.AddRow("max instances",
		pl.MaxInstances(rmt.CountMinProgram(), 8),
		pl.MaxInstances(rmt.RHHHProgram(), 8))
	return out, nil
}

// runFig15a reproduces Figure 15(a): datapath throughput vs thread
// count, with and without CocoSketch measurement attached. Each thread
// is one receive queue of the paper's OVS deployment (§6.1):
// pcap.PartitionRSS splits the capture as NIC receive-side scaling
// would, and shard.ReplayQueues runs a datapath poller (pcap reader
// that parses each frame and writes its key into the ring) and a
// measurement thread (sketch insert only) per queue, each queue with
// its own full 500 KB sketch, merged at the end. "w/o Ours" replays
// the same datapath, parse included, into a sketch that keeps nothing.
// Both runs must account for every packet of the trace.
func runFig15a(cfg RunConfig) (*TableResult, error) {
	tr := trace.CAIDALike(cfg.packets(), cfg.Seed)
	var capture bytes.Buffer
	if err := tr.WritePCAP(&capture, zeroAllocSnapLen); err != nil {
		return nil, err
	}
	want := uint64(len(tr.Packets))
	sketchCfg := core.ConfigForMemory[flowkey.FiveTuple](core.DefaultArrays, 500*1024, cfg.Seed+7)
	out := &TableResult{
		ID:      "fig15a",
		Title:   "OVS-like datapath throughput vs threads (per-queue pcap poller + parse → ring → sketch)",
		Columns: []string{"threads", "Mpps(w/o Ours)", "Mpps(w/ Ours)"},
		Notes: []string{
			"paper: with >=2 threads CocoSketch saturates the 40G NIC at <1.8% CPU overhead",
			fmt.Sprintf("host has GOMAXPROCS=%d; each thread is a poller/measurement goroutine pair, so scaling needs 2 cores per thread", runtime.GOMAXPROCS(0)),
		},
	}
	threads := []int{1, 2, 3, 4}
	if cfg.Quick {
		threads = []int{1, 2}
	}
	for _, th := range threads {
		qs, err := pcap.PartitionRSS(bytes.NewReader(capture.Bytes()), th, cfg.Seed)
		if err != nil {
			return nil, err
		}
		replayCfg := shard.ReplayConfig{Seed: cfg.Seed}
		start := time.Now()
		_, base, err := shard.ReplayQueues(replayCfg, func(int) discard { return discard{} }, qs)
		if err != nil {
			return nil, err
		}
		baseMpps := float64(base.Packets) / time.Since(start).Seconds() / 1e6
		start = time.Now()
		merged, with, err := shard.ReplayQueues(replayCfg, shard.NewBasicFactory(sketchCfg, cfg.Telemetry), qs)
		if err != nil {
			return nil, err
		}
		withMpps := float64(with.Packets) / time.Since(start).Seconds() / 1e6
		if base.Packets != want || with.Packets != want {
			return nil, fmt.Errorf("fig15a: %d threads replayed %d (w/o) and %d (w/) of %d packets",
				th, base.Packets, with.Packets, want)
		}
		if sum := merged.SumValues(); sum != want {
			return nil, fmt.Errorf("fig15a: %d threads: merged sketch mass %d, want %d", th, sum, want)
		}
		out.AddRow(th, baseMpps, withMpps)
	}
	return out, nil
}

// discard is the "w/o Ours" sketch: it accepts every burst and keeps
// nothing, so a replay into it times the datapath alone.
type discard struct{}

func (discard) InsertBatch([]flowkey.FiveTuple, []uint64) {}
func (discard) InsertBatchUnit([]flowkey.FiveTuple)       {}
func (discard) Query(flowkey.FiveTuple) uint64            { return 0 }
func (discard) Decode() map[flowkey.FiveTuple]uint64      { return nil }
func (discard) SumValues() uint64                         { return 0 }
func (discard) Merge(discard) error                       { return nil }

// runFig15b reproduces Figure 15(b): FPGA throughput of the
// hardware-friendly vs basic CocoSketch as memory grows.
func runFig15b(RunConfig) (*TableResult, error) {
	out := &TableResult{
		ID:      "fig15b",
		Title:   "FPGA throughput: hardware-friendly vs basic CocoSketch",
		Columns: []string{"memoryMB", "Mpps(hardware)", "Mpps(basic)", "speedup"},
		Notes: []string{
			"paper: ~150 Mpps at 2MB for hardware-friendly, ~5x over basic",
		},
	}
	for _, mem := range []int{256 << 10, 512 << 10, 1 << 20, 2 << 20} {
		hw := fpga.HardwareCoco(2, mem)
		basic := fpga.BasicCoco(2, mem)
		out.AddRow(fmt.Sprintf("%.2f", float64(mem)/(1<<20)),
			hw.ThroughputMpps(), basic.ThroughputMpps(),
			hw.ThroughputMpps()/basic.ThroughputMpps())
	}
	return out, nil
}

// runFig15c reproduces Figure 15(c): FPGA resource usage of CocoSketch
// vs one and six Elastic instances (configured for 90% heavy-hitter F1,
// as in the paper).
func runFig15c(RunConfig) (*TableResult, error) {
	coco := fpga.HardwareCoco(2, 560<<10)
	elastic1 := fpga.Elastic(1, 512<<10)
	elastic6 := fpga.Elastic(6, 512<<10)
	out := &TableResult{
		ID:      "fig15c",
		Title:   "FPGA resource usage (fraction of Alveo U280)",
		Columns: []string{"resource", "Ours", "Elastic", "6*Elastic"},
		Notes: []string{
			"paper: CocoSketch registers ~45x below 6*Elastic; BRAM 5.8% vs 34%",
		},
	}
	out.AddRow("Registers",
		fmt.Sprintf("%.4f", coco.RegisterFraction()),
		fmt.Sprintf("%.4f", elastic1.RegisterFraction()),
		fmt.Sprintf("%.4f", elastic6.RegisterFraction()))
	out.AddRow("LUTs",
		fmt.Sprintf("%.4f", coco.LUTFraction()),
		fmt.Sprintf("%.4f", elastic1.LUTFraction()),
		fmt.Sprintf("%.4f", elastic6.LUTFraction()))
	out.AddRow("Block RAM",
		fmt.Sprintf("%.4f", coco.BRAMFraction()),
		fmt.Sprintf("%.4f", elastic1.BRAMFraction()),
		fmt.Sprintf("%.4f", elastic6.BRAMFraction()))
	return out, nil
}

// runFig15d reproduces Figure 15(d): P4 resource usage of CocoSketch vs
// Elastic and 4×Elastic (the most a Tofino fits).
func runFig15d(RunConfig) (*TableResult, error) {
	pl := rmt.Tofino()
	coco, err := pl.Place(rmt.CocoProgram(2))
	if err != nil {
		return nil, err
	}
	e1, err := pl.Place(rmt.ElasticProgram())
	if err != nil {
		return nil, err
	}
	e4, err := pl.Place(rmt.Concat("4xElastic",
		rmt.ElasticProgram(), rmt.ElasticProgram(), rmt.ElasticProgram(), rmt.ElasticProgram()))
	if err != nil {
		return nil, err
	}
	out := &TableResult{
		ID:      "fig15d",
		Title:   "P4 resource usage (fraction of modeled Tofino)",
		Columns: []string{"resource", "Ours", "Elastic", "4*Elastic"},
		Notes: []string{
			"paper: CocoSketch 6.25% SALUs and 6.25% Map RAM for any number of keys; Elastic 18.75% SALUs per key, max 4 instances",
		},
	}
	uc, u1, u4 := coco.Utilization(), e1.Utilization(), e4.Utilization()
	for _, r := range []rmt.Resource{rmt.SRAM, rmt.MapRAM, rmt.SALU} {
		out.AddRow(r.String(),
			fmt.Sprintf("%.4f", uc[r]),
			fmt.Sprintf("%.4f", u1[r]),
			fmt.Sprintf("%.4f", u4[r]))
	}
	return out, nil
}
