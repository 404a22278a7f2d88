package runtime_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
)

// tagProbe sends a sized payload every round for three rounds, alternating
// between tagged returned Outs (tag = round) and BroadcastTagged (tag =
// 100+round), and counts deliveries whose tag is not the one its sender
// used that round; a replaced payload (fault.Garbage) must arrive untagged.
type tagProbe struct {
	wrongTag, garbage int
}

type tagPayload struct{}

func (tagPayload) Bits() int { return 6 }

func tagFor(round int) uint32 {
	if round%2 == 1 {
		return uint32(round)
	}
	return uint32(100 + round)
}

func (m *tagProbe) Send(env *runtime.Env) []runtime.Out {
	r := env.Round()
	if r > 3 {
		env.Output([2]int{m.wrongTag, m.garbage})
		env.Terminate()
		return nil
	}
	if r%2 == 1 {
		outs := runtime.Broadcast(env.Info(), tagPayload{})
		for i := range outs {
			outs[i].Tag = tagFor(r)
		}
		return outs
	}
	env.BroadcastTagged(tagPayload{}, tagFor(r))
	return nil
}

func (m *tagProbe) Receive(env *runtime.Env, inbox []runtime.Msg) {
	for _, msg := range inbox {
		switch msg.Payload.(type) {
		case fault.Garbage:
			m.garbage++
			if msg.Tag != 0 {
				m.wrongTag++
			}
		default:
			if msg.Tag != tagFor(env.Round()) {
				m.wrongTag++
			}
		}
	}
}

// TestTagDelivery: every delivery path copies the sender's tag — returned
// Outs and BroadcastTagged, on the sequential, pool and sharded engines,
// with and without an adversary — and a tagged message is accounted as
// TagHeaderBits plus its payload's bits. A corrupted payload arrives
// untagged, and the adversary's Garbage is sized from the header-inclusive
// view, so the delivered bits match what the ledgers charged for it.
func TestTagDelivery(t *testing.T) {
	g := graph.Clique(6)
	const msgBits = runtime.TagHeaderBits + 6
	for _, mode := range []struct {
		name     string
		parallel bool
		shards   int
	}{{"seq", false, 0}, {"par", true, 0}, {"shard2", false, 2}, {"shard3-par", true, 3}} {
		for _, chaos := range []bool{false, true} {
			cfg := runtime.Config{
				Graph:    g,
				Factory:  func(runtime.NodeInfo, any) runtime.Machine { return &tagProbe{} },
				Parallel: mode.parallel,
				Shards:   mode.shards,
			}
			if chaos {
				cfg.Adversary = fault.New(fault.Policy{Seed: 3, Drop: 0.1, Duplicate: 0.2, Corrupt: 0.3})
			}
			bits, injectedBits := 0, 0
			cfg.Stats = func(rs runtime.RoundStats) {
				bits += rs.Bits
				injectedBits += rs.InjectedBits
			}
			res, err := runtime.Run(cfg)
			if err != nil {
				t.Fatalf("%s chaos=%v: %v", mode.name, chaos, err)
			}
			garbage := 0
			for i, o := range res.Outputs {
				got := o.([2]int)
				if got[0] != 0 {
					t.Errorf("%s chaos=%v: node %d saw %d deliveries with the wrong tag", mode.name, chaos, i, got[0])
				}
				garbage += got[1]
			}
			if res.MaxMsgBits != msgBits {
				t.Errorf("%s chaos=%v: MaxMsgBits = %d, want %d", mode.name, chaos, res.MaxMsgBits, msgBits)
			}
			if bits != res.Messages*msgBits {
				t.Errorf("%s chaos=%v: %d bits for %d messages, want %d each", mode.name, chaos, bits, res.Messages, msgBits)
			}
			if chaos && (garbage == 0 || res.Corrupted == 0 || res.Dropped == 0 || injectedBits == 0) {
				t.Errorf("%s: chaos run injected no faults (garbage %d, corrupted %d, dropped %d, injected bits %d)",
					mode.name, garbage, res.Corrupted, res.Dropped, injectedBits)
			}
		}
	}
}
