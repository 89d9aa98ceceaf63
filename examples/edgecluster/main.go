// Edge-cluster scenario: heterogeneous devices and the FedWEIT memory
// blow-up (§V-B's 30-device study).
//
// A mixed cluster of Jetsons and Raspberry Pis (one with only 2 GB) trains
// a CORe50-style workload with GEM, FedWEIT and FedKNOW. The demo shows
// (a) how the slow CPU-only Pis dominate round time, and (b) how FedWEIT's
// all-clients adaptive-weight pool exhausts the 2 GB Pi mid-sequence while
// FedKNOW's sparse local knowledge stays within budget.
package main

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/fed"
	"repro/internal/model"
	"repro/internal/tensor"
)

func main() {
	ds, tasks := data.CORe50.Build(data.CI, 7)
	cluster := &device.Cluster{Devices: []device.Device{
		device.JetsonAGX, device.JetsonXavierNX, device.JetsonNano,
		device.RaspberryPi(2), device.RaspberryPi(4), device.RaspberryPi(8),
	}}
	seqs := data.Federate(tasks, cluster.Size(), data.CIAlloc(8))

	build := func(rng *tensor.RNG) *model.Model {
		return model.MustBuild("SixCNN", ds.NumClasses, ds.C, ds.H, ds.W, 1, rng)
	}
	// Map simulated model bytes to real-hardware scale so the 2 GB budget
	// is meaningful (a real 6-CNN/ResNet-style model is tens of MB; 60 MB
	// matches the paper's ResNet-18-with-heads deployment size).
	probe := build(nil) // only its size is read
	memScale := 60e6 / float64(probe.ParamBytes())

	for _, method := range []string{"GEM", "FedWEIT", "FedKNOW"} {
		cfg := fed.Config{
			Method: method, Rounds: 2, LocalIters: 2, BatchSize: 8,
			LR: 0.02, LRDecay: 1e-4, NumClasses: ds.NumClasses,
			Bandwidth: 1024 * 1024, MemScale: memScale, Seed: 7,
		}
		engine := fed.NewEngine(cfg, cluster, seqs, build,
			experiments.MethodFactory(method, data.CI))
		res := engine.Run()
		last := res.PerTask[len(res.PerTask)-1]
		fmt.Printf("%-8s final-acc %.4f  sim-hours %.4f  comm-hours %.5f",
			method, last.AvgAccuracy, last.SimHours, last.CommHours)
		if len(res.DeadAfter) > 0 {
			for id, task := range res.DeadAfter {
				fmt.Printf("  [client %d (%s) OOM after task %d]",
					id, cluster.Devices[id].Name, task+1)
			}
		}
		fmt.Println()
	}
}
