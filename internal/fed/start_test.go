package fed

import (
	"math"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestClientStartsFromReference holds every client, loopback and wire, to the
// start of the paper's common training settings (§V-B): its weights are the
// reference model's bit for bit, its BatchNorm statistics are at their
// constant init, and its RNG stream is where the per-client build drawing
// from the stream's Fork(7) left it, so that fork is still taken although
// the client model now draws nothing. It also pins what the client builds
// with: a nil RNG draws nothing, leaving every parameter zero but γ, which
// is 1, and every running variance 1.
func TestClientStartsFromReference(t *testing.T) {
	cfg, cluster, seqs, _ := tinySetup(3)
	build := func(rng *tensor.RNG) *model.Model {
		return model.MustBuild("ResNet18", cfg.NumClasses, 3, 12, 12, 1, rng)
	}
	factory := func(ctx *ClientCtx) Strategy { return &passthrough{ctx: ctx} }
	ref := build(tensor.NewRNG(cfg.Seed).Fork(0xC0FFEE)).Weights()

	// nextDraw is client id's first draw under the retired construction:
	// the reference fork, one fork per lower ID, the client's own fork, then
	// the Fork(7) its model drew from.
	nextDraw := func(id int) uint64 {
		root := tensor.NewRNG(cfg.Seed)
		root.Fork(0xC0FFEE)
		for j := 0; j < id; j++ {
			root.Fork(uint64(j) + 1)
		}
		rng := root.Fork(uint64(id) + 1)
		rng.Fork(7)
		return rng.Uint64()
	}
	checkStats := func(t *testing.T, who string, m *model.Model) {
		t.Helper()
		nn.Walk(m.Net, func(l nn.Layer) {
			if bn, ok := l.(*nn.BatchNorm2D); ok {
				for c := range bn.RunningMean {
					if bn.RunningMean[c] != 0 || bn.RunningVar[c] != 1 {
						t.Fatalf("%s: running statistics (%v, %v) at channel %d, want (0, 1)",
							who, bn.RunningMean[c], bn.RunningVar[c], c)
					}
				}
			}
		})
	}
	checkClient := func(t *testing.T, who string, id int, c *Client) {
		t.Helper()
		w := c.ctx.Model.Weights()
		if len(w) != len(ref) {
			t.Fatalf("%s client %d: %d weights, the reference has %d", who, id, len(w), len(ref))
		}
		for i := range ref {
			if math.Float32bits(w[i]) != math.Float32bits(ref[i]) {
				t.Fatalf("%s client %d: weight %d = %v, the reference's is %v", who, id, i, w[i], ref[i])
			}
		}
		checkStats(t, who, c.ctx.Model)
		if got, want := c.ctx.RNG.Uint64(), nextDraw(id); got != want {
			t.Fatalf("%s client %d: next draw %#x, want %#x: the stream moved", who, id, got, want)
		}
	}

	e := NewEngine(cfg, cluster, seqs, build, factory)
	for id, c := range e.clients {
		checkClient(t, "NewEngine", id, c)
	}
	for id, seq := range seqs {
		checkClient(t, "NewWireClient", id, NewWireClient(cfg, id, len(seqs), cluster.Devices[id], seq, build, factory))
	}

	blank := build(nil)
	for _, p := range blank.Params() {
		want := float32(0)
		if strings.HasSuffix(p.Name, ".gamma") {
			want = 1
		}
		for i, v := range p.W.Data {
			if v != want {
				t.Fatalf("a nil-RNG build: %s[%d] = %v, want %v", p.Name, i, v, want)
			}
		}
	}
	checkStats(t, "a nil-RNG build", blank)
}
