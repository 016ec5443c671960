// Quickstart: the whole pipeline in one page — generate the paper's graph
// workload (1,024 vertices, edge factor 16), trace the Graph500 BFS kernel
// on the system simulator, replay the trace against a DRAM, an NVM and a
// hybrid memory, and compare the six performance metrics.
package main

import (
	"context"
	"fmt"
	"log"

	"graphdse/internal/memsim"
	"graphdse/internal/sysim"
)

func main() {
	// 1. Workload + system simulation (the gem5 stage of Figure 1).
	machine, bfs, err := sysim.PaperWorkloadTraceContext(context.Background(), sysim.DefaultConfig(), 1024, 16, 42, 1, nil)
	if err != nil {
		log.Fatal(err)
	}
	pt, err := memsim.Prepare(machine.Trace())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BFS visited %d/1024 vertices in %d levels; trace has %d memory events\n\n",
		bfs.Visited, bfs.Iterations, pt.Len())

	// 2. Memory simulation (the NVMain stage) for three memory designs at
	//    2 GHz CPU, 400 MHz controller, 2 channels.
	flat := memsim.NewHybridConfig(2, 2000, 400, 40, 0.125)
	flat.HybridMode = memsim.HybridFlat
	configs := []struct {
		name string
		cfg  memsim.Config
	}{
		{"DRAM", memsim.NewDRAMConfig(2, 2000, 400)},
		{"NVM", memsim.NewNVMConfig(2, 2000, 400, 40)},
		{"Hybrid/c", memsim.NewHybridConfig(2, 2000, 400, 40, 0.125)},
		{"Hybrid/f", flat},
	}
	fmt.Printf("%-9s %10s %12s %12s %12s %12s %12s\n",
		"type", "power(W)", "BW(MB/s)", "avgLat(cy)", "totLat(cy)", "reads/ch", "writes/ch")
	for _, c := range configs {
		sim, err := memsim.New(c.cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.RunPrepared(pt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s %10.3f %12.1f %12.1f %12.1f %12.0f %12.0f\n",
			c.name, res.AvgPowerPerChannel, res.AvgBandwidthPerBank,
			res.AvgLatency, res.AvgTotalLatency,
			res.AvgReadsPerChannel, res.AvgWritesPerChannel)
	}
	fmt.Println("\nExpected shape (paper §IV-B): DRAM draws the most power and the")
	fmt.Println("highest bandwidth; NVM draws the least power; hybrids win on")
	fmt.Println("average latency (Hybrid/c = DRAM cache over NVM, Hybrid/f = flat")
	fmt.Println("address partition); DRAM beats NVM and the flat hybrid on")
	fmt.Println("queue-inclusive total latency.")
}
