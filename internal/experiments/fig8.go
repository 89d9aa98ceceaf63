package experiments

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/fed"
)

// Fig8Result is the client-scalability study (Fig. 8): accuracy and
// forgetting on MiniImageNet at two cluster scales (50 and 100 clients in
// the paper), for GEM / FedWEIT / FedKNOW. More clients means thinner
// non-IID shards per client, so negative transfer intensifies.
type Fig8Result struct {
	ClientCounts []int
	Methods      []string
	// Accuracy[ci][mi] is the per-task accuracy series for client count ci
	// and method mi; Forgetting likewise.
	Accuracy   [][]Series
	Forgetting [][]Series
	Raw        map[string]*fed.Result // keyed "method@clients"
}

// Fig8 runs the sweep.
func Fig8(opt Options) (*Fig8Result, error) {
	counts := []int{50, 100}
	if opt.Scale == data.CI {
		counts = []int{4, 8}
	}
	methods := []string{"GEM", "FedWEIT", "FedKNOW"}
	base := NewFederation(opt, data.MiniImageNet)

	res := &Fig8Result{ClientCounts: counts, Methods: methods, Raw: map[string]*fed.Result{}}
	for _, nClients := range counts {
		f := *base
		f.clients = nClients
		f.cluster = device.Uniform(nClients, device.JetsonXavierNX)
		// Thinner shards at higher client counts: halve the per-client
		// sample fraction for the larger cluster, mirroring the paper's
		// observation that 100-client MiniImageNet leaves few samples each.
		if nClients == counts[len(counts)-1] {
			f.alloc.MinFrac /= 2
			f.alloc.MaxFrac /= 2
		}
		f.Federate(opt)

		var accRow, fgtRow []Series
		for _, m := range methods {
			r := train(opt, &f, m, MethodFactory(m, opt.Scale))
			res.Raw[fmt.Sprintf("%s@%d", m, nClients)] = r
			label := fmt.Sprintf("%s (%d clients)", m, nClients)
			accRow = append(accRow, perTask(label, r, taskNumber, avgAccuracy))
			fgtRow = append(fgtRow, perTask(label, r, taskNumber, forgetting))
		}
		res.Accuracy = append(res.Accuracy, accRow)
		res.Forgetting = append(res.Forgetting, fgtRow)
	}
	for i, nClients := range counts {
		PrintSeries(opt.out(), fmt.Sprintf("Fig.8(a): accuracy, %d clients", nClients), res.Accuracy[i])
		PrintSeries(opt.out(), fmt.Sprintf("Fig.8(b): forgetting rate, %d clients", nClients), res.Forgetting[i])
	}
	return res, nil
}
