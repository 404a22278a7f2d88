package repro_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro"
	"repro/internal/obs"
)

var updateLedgers = flag.Bool("update-ledgers", false, "rewrite testdata/chaos_ledgers.golden from the current tree")

const chaosLedgerGolden = "testdata/chaos_ledgers.golden"

// chaosLedger is the delivery accounting of one run under a seeded chaos
// adversary, and the run's error text. Messages, Bits, DroppedBits and
// Corrupted are summed from the trace's batch and fault events, so they
// include the round a run aborts in; InjectedBits comes from the per-round
// records of the completed rounds.
type chaosLedger struct {
	rounds, messages, bits, maxMsgBits int
	droppedBits, injectedBits          int
	corrupted                          int
	err                                string
}

func (l chaosLedger) String() string {
	return fmt.Sprintf("rounds=%d messages=%d bits=%d maxMsgBits=%d droppedBits=%d injectedBits=%d corrupted=%d err=%q",
		l.rounds, l.messages, l.bits, l.maxMsgBits, l.droppedBits, l.injectedBits, l.corrupted, l.err)
}

// chaosPolicies are the two seeded fault mixes of the golden: drops and
// duplicates alone, which most variants survive to completion, and the same
// mix with corruption, which a template run turns into a protocol error.
var chaosPolicies = []struct {
	name   string
	policy repro.ChaosPolicy
}{
	{"dd", repro.ChaosPolicy{Seed: 47, Drop: 0.05, Duplicate: 0.05}},
	{"ddc", repro.ChaosPolicy{Seed: 47, Drop: 0.05, Duplicate: 0.05, Corrupt: 0.01}},
}

// runChaosLedger runs one registered (problem, algorithm) pair on a small
// seeded instance under the given policy and books its ledgers. engine
// selects the engine mode (Parallel, Shards); its other fields are ignored.
func runChaosLedger(t *testing.T, problem, alg string, policy repro.ChaosPolicy, engine repro.Options) chaosLedger {
	t.Helper()
	g := repro.GNP(30, 0.15, repro.NewRand(41))
	if problem == "tree" {
		g = repro.RandomTree(30, repro.NewRand(41))
	}
	preds, err := repro.GeneratePreds(problem, g, 4, 43)
	if err != nil {
		t.Fatalf("GeneratePreds(%s): %v", problem, err)
	}
	l := chaosLedger{maxMsgBits: -1}
	rec := repro.NewTraceRecorder(0)
	opts := repro.Options{
		Parallel:  engine.Parallel,
		Shards:    engine.Shards,
		Seed:      5,
		Adversary: repro.NewChaos(policy),
		Trace:     rec,
		OnRoundStats: func(rs repro.RoundStats) {
			l.rounds = rs.Round
			l.injectedBits += rs.InjectedBits
		},
	}
	res, err := repro.RunProblem(g, problem, alg, preds, opts)
	if err != nil {
		l.err = err.Error()
	} else {
		l.rounds = res.Run.Rounds
		l.maxMsgBits = res.Run.MaxMsgBits
	}
	if rec.Dropped() > 0 {
		t.Fatalf("%s/%s: trace recorder overflowed", problem, alg)
	}
	for _, ev := range rec.Events() {
		switch {
		case ev.Type == obs.EvBatch:
			l.messages += int(ev.Value)
			l.bits += int(ev.Aux)
		case ev.Type == obs.EvFault && ev.Name == "drop":
			l.droppedBits += int(ev.Value)
		case ev.Type == obs.EvFault && ev.Name == "corrupt":
			l.corrupted++
		}
	}
	if err == nil && res.Run.Messages != l.messages {
		t.Fatalf("%s/%s: Result.Messages %d != traced batches %d", problem, alg, res.Run.Messages, l.messages)
	}
	return l
}

// TestChaosLedgerGolden pins the delivery ledgers of every registered
// (problem, algorithm) pair under seeded drops, duplicates and corruption:
// Rounds, Messages, Bits, MaxMsgBits, DroppedBits, InjectedBits, Corrupted
// and the error text. Template stage messages carry an 8-bit header in the
// accounting, and a corrupted stage message arrives untagged; the golden
// file fixes both, so a change to how the templates multiplex their stages
// cannot move any ledger unnoticed. The worker-pool and sharded engines
// must agree.
//
// Regenerate with: go test . -run TestChaosLedgerGolden -update-ledgers
func TestChaosLedgerGolden(t *testing.T) {
	var lines []string
	for _, p := range repro.Problems() {
		for _, a := range p.Algorithms {
			for _, cp := range chaosPolicies {
				seq := runChaosLedger(t, p.Name, a.Name, cp.policy, repro.Options{})
				for _, engine := range []repro.Options{{Parallel: true}, {Shards: 2}} {
					if l := runChaosLedger(t, p.Name, a.Name, cp.policy, engine); l != seq {
						t.Errorf("%s/%s/%s (parallel=%v shards=%d): ledger %v != seq ledger %v",
							p.Name, a.Name, cp.name, engine.Parallel, engine.Shards, l, seq)
					}
				}
				lines = append(lines, fmt.Sprintf("%s/%s/%s %v", p.Name, a.Name, cp.name, seq))
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateLedgers {
		if err := os.WriteFile(chaosLedgerGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(chaosLedgerGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-ledgers)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("golden has %d variants, registry has %d", len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("ledger drifted:\n got  %s\n want %s", lines[i], wantLines[i])
		}
	}
}
