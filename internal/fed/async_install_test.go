package fed_test

import (
	"math"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/fed"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestAsyncInstallBeforeFirstRound scripts the server side of one
// asynchronous task in which a commit triggered by faster peers reaches the
// client ahead of its first upload: RoundStart, a GlobalModel, and then —
// after the client's rounds — the task-final broadcast. The client has no
// pre-aggregation vector yet, so install must take its current weights for
// one: FedKNOW hands that vector to nn.SetFlatParams in AfterAggregate (the
// parent panicked there on a nil one), and FedRep's mask-merge keeps it for
// the personal head (the parent merged against an empty vector and zeroed
// the head).
func TestAsyncInstallBeforeFirstRound(t *testing.T) {
	ds := data.Generate(data.Config{
		Name: "tiny", NumClasses: 4, TrainPerClass: 6, TestPerClass: 2,
		C: 3, H: 12, W: 12, Noise: 0.3, Seed: 5,
	})
	seq := data.Federate(data.SplitTasks(ds, 1), 1, data.CIAlloc(5))[0]
	build := func(rng *tensor.RNG) *model.Model {
		return model.MustBuild("SixCNN", 4, 3, 12, 12, 1, rng)
	}
	for _, tc := range []struct {
		method     string
		factory    fed.Factory
		localIters int // 0 makes an upload exactly what install left behind
	}{
		{"FedKNOW", core.Factory(core.Options{Rho: 0.1, K: 2, FinetuneIters: 1, SelectEvery: 1}), 1},
		{"FedRep", baselines.Registry["FedRep"], 0},
		{"FedAvg", baselines.Registry["FedAvg"], 0},
	} {
		t.Run(tc.method, func(t *testing.T) {
			cfg := fed.Config{
				Method: tc.method, Scheduler: fed.SchedulerAsync, Rounds: 2, LocalIters: tc.localIters,
				BatchSize: 8, LR: 0.02, LRDecay: 1e-4, NumClasses: 4, Bandwidth: 1 << 20, Seed: 5,
			}
			var strategy fed.Strategy
			c := fed.NewWireClient(cfg, 0, 1, device.Jetson20().Devices[0], seq, build,
				func(ctx *fed.ClientCtx) fed.Strategy {
					strategy = tc.factory(ctx)
					return strategy
				})
			local := nn.FlattenParams(c.Ctx().Model.Params())
			global := make([]float32, len(local))
			for i := range global {
				global[i] = local[i] + 0.01
			}

			srv, cli := fed.LoopbackCap(cfg.Rounds + 1) // the uploads and the report
			err := c.RunAsyncDelivered(cli,
				&fed.RoundStart{TaskIdx: 0},
				&fed.GlobalModel{Params: global, Version: 1},
				&fed.GlobalModel{Params: global, Version: 2, TaskFinal: true})
			if err != nil {
				t.Fatal(err)
			}

			msg, err := srv.Recv()
			if err != nil {
				t.Fatal(err)
			}
			first, ok := msg.(*fed.Update)
			if !ok {
				t.Fatalf("first message from the client is %T, want *fed.Update", msg)
			}
			if first.BaseVersion != 1 {
				t.Errorf("first upload trained from version %d, want the installed commit 1", first.BaseVersion)
			}
			mask := strategy.AggregateMask()
			for j, v := range first.Params {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("first upload's parameter %d is %v", j, v)
				}
				if tc.localIters > 0 {
					continue
				}
				want := global[j]
				if mask != nil && !mask[j] {
					want = local[j] // personal: the client's own weight survives the install
				}
				if v != want {
					t.Fatalf("parameter %d after the install is %v, want %v (aggregated %v)", j, v, want, mask == nil || mask[j])
				}
			}
			for r := 1; r < cfg.Rounds; r++ {
				if msg, err = srv.Recv(); err != nil {
					t.Fatal(err)
				} else if _, ok := msg.(*fed.Update); !ok {
					t.Fatalf("upload %d is %T, want *fed.Update", r, msg)
				}
			}
			if msg, err = srv.Recv(); err != nil {
				t.Fatal(err)
			} else if re, ok := msg.(*fed.RoundEnd); !ok || re.Dead {
				t.Fatalf("task report is %#v, want a live *fed.RoundEnd", msg)
			}
		})
	}
}
