package runtime

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Config describes one execution of a distributed algorithm.
type Config struct {
	// Graph is the communication graph. Required.
	Graph *graph.Graph
	// Factory builds the per-node machines. Required.
	Factory Factory
	// Predictions, when non-nil, must have length Graph.N(); Predictions[i]
	// is handed to the factory for node index i.
	Predictions []any
	// Parallel selects the worker-pool engine: a pool of goroutines is
	// created once per Run and executes the send/receive phases of every
	// round via phase signals, with a barrier between phases. Both engines
	// have identical semantics. Combined with Shards, each shard engine gets
	// its own pool splitting GOMAXPROCS.
	Parallel bool
	// Shards, when positive, selects the sharded engine: the graph is
	// partitioned into Shards node sets (contiguous index ranges unless
	// Partition overrides the strategy) and each shard runs its phases on an
	// independent shard engine with its own inbox arena and frontier lists,
	// exchanging boundary-edge message batches at the round barrier. The
	// determinism contract extends across shard counts: results, error
	// surfaces, and trace streams (EvShardExchange ledgers excepted) are
	// identical for every Shards value, including 0 (the single-engine
	// path). See internal/runtime/shard.go.
	Shards int
	// Partition, when non-nil, fixes the node→shard assignment (e.g.
	// shard.GreedyEdgeCut); its shard count must agree with Shards when both
	// are set. nil with Shards > 0 selects shard.Contiguous.
	Partition *shard.Partition
	// MaxRounds caps the execution; 0 selects 8*n + 64, a generous bound for
	// every algorithm in this repository (all are O(n)-round or better).
	MaxRounds int
	// Crashes maps node index to the round (1-based) at the start of which
	// the node crashes: from that round on it sends nothing, receives
	// nothing, and never outputs. Used to exercise fault-tolerant parts.
	// Crash rounds must be >= 1 and node indices must be in [0, Graph.N());
	// anything else is a config error.
	Crashes map[int]int
	// Adversary, when non-nil, intercepts message routing and may contribute
	// a crash schedule; see the Adversary interface for the determinism
	// contract. Adversary state is consumed by the run: pass a fresh value
	// per Run.
	Adversary Adversary
	// RoundDeadline, when positive, bounds the wall-clock time of each send
	// and receive phase; a phase that exceeds it aborts the run with an
	// ErrRoundDeadline diagnostic. The wedged phase goroutine cannot be
	// killed and is abandoned, so a deadline abort is a terminal condition
	// for the process's engine use, not a recoverable per-round event.
	RoundDeadline time.Duration
	// MaxMessageBits, when positive, enforces the CONGEST model: every
	// payload must implement BitSized and report at most this many bits;
	// violations abort the run. The conventional budget is O(log n) — see
	// CongestBudget.
	MaxMessageBits int
	// Observer, when non-nil, is invoked at the end of every round with the
	// round number, the current outputs (index-aligned, nil where absent),
	// and which nodes are still active. The slices are reused; copy to keep.
	Observer func(round int, outputs []any, active []bool)
	// Stats, when non-nil, is invoked at the end of every round with the
	// engine's instrumentation record for that round (wall time, deliveries,
	// payload bits). Purely observational: it never affects semantics.
	Stats func(RoundStats)
	// Trace, when non-nil, receives the run's typed event stream (see
	// internal/obs for the taxonomy). All events are emitted from the
	// engine's main goroutine in an order identical across both engine
	// modes; only wall-clock durations differ. Purely observational. When
	// nil the instrumented paths reduce to a nil check.
	Trace *obs.Recorder
	// Telemetry, when non-nil, receives per-phase round wall-time
	// observations into dgp_round_seconds{phase,shards} histograms (phases:
	// send, route, receive, round). The histograms are resolved once on the
	// run's setup path; the round loop only reads the observational clock
	// and updates pre-resolved histograms, so semantics are untouched and a
	// nil Telemetry costs a single pointer check per round.
	Telemetry *obs.Telemetry
}

// RoundStats is the engine's per-round instrumentation record, reported
// through Config.Stats.
type RoundStats struct {
	// Round is the 1-based round number.
	Round int
	// Duration is the wall time of the whole round (send, route, receive,
	// bookkeeping).
	Duration time.Duration
	// Messages is the number of messages delivered this round.
	Messages int
	// Bits is the total size of the round's delivered payloads that
	// implement BitSized, in bits; unsized payloads contribute nothing.
	Bits int
	// Active is the number of nodes that participated in this round.
	Active int
	// Dropped counts messages the adversary dropped this round, and
	// DroppedBits their sized payload bits. Dropped traffic is reported
	// here, never in Messages/Bits: delivered and injected/denied traffic
	// are separate ledgers, so chaos runs don't inflate bandwidth numbers.
	Dropped     int
	DroppedBits int
	// Injected counts extra duplicate copies the adversary injected this
	// round (the copies beyond the first), and InjectedBits their sized
	// bits. The copies are real deliveries, so they also appear in
	// Messages/Bits; these fields isolate the adversary's share.
	Injected     int
	InjectedBits int
	// Corrupted counts deliveries whose payload the adversary replaced.
	Corrupted int
	// Shards holds the per-shard delivery ledgers of a multi-shard round
	// (Config.Shards >= 2; nil otherwise — a single shard's ledger is the
	// global fields above). Indexed by shard; the slice is reused across
	// rounds, copy to keep.
	Shards []ShardRoundStats
}

// ShardRoundStats is one shard's slice of a round's delivery ledgers
// (RoundStats.Shards). Delivered/Injected split exactly like the global
// fields: injected copies are real deliveries and appear in both. Boundary
// fields ledger the traffic this shard exported across the partition cut —
// the per-round cost of the exchange phase.
type ShardRoundStats struct {
	Delivered       int
	DeliveredBits   int
	Injected        int
	InjectedBits    int
	BoundaryOut     int
	BoundaryOutBits int
}

// Result reports the outcome of a run.
type Result struct {
	// Rounds is the round in which the last node terminated (0 if the graph
	// is empty).
	Rounds int
	// Outputs holds each node's final output, indexed by node index; nil for
	// crashed nodes that never output.
	Outputs []any
	// TerminatedAt holds the round each node terminated, 0 for crashed nodes
	// that never terminated.
	TerminatedAt []int
	// Messages is the total number of point-to-point messages delivered.
	Messages int
	// MaxMsgBits is the largest single-message size observed, in bits, over
	// payloads implementing BitSized. It is -1 when no sized payload was
	// ever observed: either some delivered payload did not implement
	// BitSized (the run is LOCAL-only) or the run delivered no messages at
	// all, so no bandwidth claim can be made either way.
	MaxMsgBits int
	// Dropped/DroppedBits total the adversary-dropped messages and their
	// sized bits; dropped traffic never counts toward Messages. Injected
	// totals the extra duplicate copies (which, being real deliveries, do
	// count toward Messages as well); Corrupted totals corrupted
	// deliveries. See the matching RoundStats fields.
	Dropped     int
	DroppedBits int
	Injected    int
	Corrupted   int
}

// ErrNoTermination is returned when MaxRounds elapses with active nodes.
var ErrNoTermination = errors.New("runtime: algorithm did not terminate within MaxRounds")

// ErrConfig wraps every configuration-validation error from Run (nil graph
// or factory, mismatched predictions, invalid crash schedules): the run
// never started. Callers distinguishing misconfiguration from runtime
// failure — e.g. the recovery wrapper, which can heal a damaged run but not
// an impossible one — test errors.Is(err, ErrConfig).
var ErrConfig = errors.New("runtime: invalid configuration")

// ErrCongestViolation is returned when MaxMessageBits is set and a message
// is unsized or too large for the CONGEST budget.
var ErrCongestViolation = errors.New("runtime: CONGEST bandwidth violation")

// ErrMachinePanic is returned when a machine's Send or Receive panics. The
// panic is contained: it surfaces as a per-node error from Run (wrapping
// this sentinel, with node, round, phase, and the panic value) and the
// worker pool shuts down cleanly instead of crashing the process.
var ErrMachinePanic = errors.New("runtime: machine panicked")

// ErrRoundDeadline is returned when Config.RoundDeadline is set and a send
// or receive phase exceeds it (a wedged machine). The returned error wraps
// this sentinel and names the phase and round.
var ErrRoundDeadline = errors.New("runtime: round deadline exceeded")

// ErrProtocol wraps every violation of the node-machine contract detected at
// runtime: sending to a non-neighbor, producing output after termination,
// terminating without output, or breaking a template's lockstep/lane
// discipline (internal/core). Test errors.Is(err, ErrProtocol).
var ErrProtocol = errors.New("runtime: protocol violation")

// CongestBudget returns the conventional CONGEST message budget for an
// n-node graph with identifier domain d: c·⌈log₂(max(n,d))⌉ bits with c = 4,
// enough for a constant number of identifiers or colors per message. The
// degenerate single-node case gets the one-bit floor, 4·1.
func CongestBudget(n, d int) int {
	m := n
	if d > m {
		m = d
	}
	if m < 2 {
		return 4
	}
	// bits.Len(m-1) is exactly ⌈log₂ m⌉ for m >= 2.
	return 4 * bits.Len(uint(m-1))
}

// Run executes the algorithm to completion and returns the result.
func Run(cfg Config) (*Result, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("%w: Config.Graph is required", ErrConfig)
	}
	if cfg.Factory == nil {
		return nil, fmt.Errorf("%w: Config.Factory is required", ErrConfig)
	}
	g := cfg.Graph
	n := g.N()
	if cfg.Predictions != nil && len(cfg.Predictions) != n {
		return nil, fmt.Errorf("%w: %d predictions for %d nodes", ErrConfig, len(cfg.Predictions), n)
	}
	crashes := cfg.Crashes
	if err := validCrashes(crashes, n, "Config.Crashes"); err != nil {
		return nil, err
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("%w: Config.Shards = %d; must be >= 0", ErrConfig, cfg.Shards)
	}
	part := cfg.Partition
	if part != nil {
		if err := part.Validate(n); err != nil {
			return nil, fmt.Errorf("%w: Config.Partition: %v", ErrConfig, err)
		}
		if cfg.Shards != 0 && cfg.Shards != part.S {
			return nil, fmt.Errorf("%w: Config.Shards = %d but Config.Partition has %d shards",
				ErrConfig, cfg.Shards, part.S)
		}
	} else if cfg.Shards > 0 {
		part = shard.Contiguous(n, cfg.Shards)
	}
	if cfg.Adversary != nil {
		adv := cfg.Adversary.Crashes(n)
		if err := validCrashes(adv, n, "Adversary.Crashes"); err != nil {
			return nil, err
		}
		if len(adv) > 0 {
			merged := make(map[int]int, len(crashes)+len(adv))
			for i, r := range crashes {
				merged[i] = r
			}
			for i, r := range adv {
				if cur, ok := merged[i]; !ok || r < cur {
					merged[i] = r
				}
			}
			crashes = merged
		}
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = 8*n + 64
	}

	st := newState(cfg, g, n, crashes)
	if part != nil {
		st.initLanes(part)
		// A deadline abort abandons the in-flight phase goroutine, which may
		// still be dispatching on the lanes' (or pool's) channels; closing
		// them underneath it would race, so abandoned lanes leak with it.
		defer func() {
			if !st.poolAbandoned {
				st.closeLanes()
			}
		}()
	} else if cfg.Parallel {
		st.pool = newWorkerPool(n)
		if st.pool != nil {
			defer func() {
				if !st.poolAbandoned {
					st.pool.close()
				}
			}()
		}
	}
	res := &Result{
		Outputs:      make([]any, n),
		TerminatedAt: make([]int, n),
	}
	if st.trace != nil {
		st.trace.Emit(obs.Event{Type: obs.EvRunStart, Value: int64(n), Aux: int64(g.M())})
	}

	telemetry := st.telRound != nil
	timed := cfg.Stats != nil || st.trace != nil || telemetry
	for round := 1; st.activeCount > 0; round++ {
		if round > maxRounds {
			err := fmt.Errorf("%w (round %d, %d nodes active)", ErrNoTermination, maxRounds, st.activeCount)
			// The round that overran never began; close the run after the
			// last round that did execute.
			st.traceRunEnd(maxRounds, res, err)
			return nil, err
		}
		var start, mark time.Time
		if timed {
			// Observational wall-clock only (RoundStats.Duration, trace
			// DurNS, telemetry histograms); the obs funnel is exempted
			// package-wide by the seededrand analyzer and never feeds back
			// into semantics.
			start = obs.Now()
			mark = start
		}
		st.beginRound(round)
		activeThisRound := st.activeCount
		if err := st.phase(st.sendFn, round, "send"); err != nil {
			st.traceAbort(round, res, err, "send", false)
			return nil, err
		}
		if err := st.firstError(); err != nil {
			st.traceAbort(round, res, err, "send", true)
			return nil, err
		}
		if telemetry {
			mark = telObserve(st.telSend, mark)
		}
		if len(st.lanes) > 1 {
			st.routeSharded(round, res)
		} else {
			st.route(round, res)
		}
		if telemetry {
			mark = telObserve(st.telRoute, mark)
		}
		if err := st.phase(st.receiveFn, round, "receive"); err != nil {
			st.traceAbort(round, res, err, "receive", false)
			return nil, err
		}
		if err := st.firstError(); err != nil {
			st.traceAbort(round, res, err, "receive", true)
			return nil, err
		}
		if telemetry {
			telObserve(st.telReceive, mark)
		}
		st.endRound(round, res)
		var dur time.Duration
		if timed {
			dur = obs.Since(start)
		}
		if telemetry {
			st.telRound.Observe(dur.Seconds())
		}
		if st.trace != nil {
			st.trace.Emit(obs.Event{
				Type: obs.EvRoundEnd, Round: round,
				Value: int64(st.roundMsgs), Aux: int64(st.roundBits),
				DurNS: dur.Nanoseconds(),
			})
		}
		if cfg.Stats != nil {
			cfg.Stats(RoundStats{
				Round:        round,
				Duration:     dur,
				Messages:     st.roundMsgs,
				Bits:         st.roundBits,
				Active:       activeThisRound,
				Dropped:      st.roundDropped,
				DroppedBits:  st.roundDroppedBits,
				Injected:     st.roundInjected,
				InjectedBits: st.roundInjectedBits,
				Corrupted:    st.roundCorrupted,
				Shards:       st.shardStats,
			})
		}
		if cfg.Observer != nil {
			cfg.Observer(round, st.observedOutputs, st.observedActive)
		}
	}
	res.MaxMsgBits = st.maxMsgBits
	if st.localOnly {
		res.MaxMsgBits = -1
	}
	st.traceRunEnd(res.Rounds, res, nil)
	return res, nil
}

// telObserve records the wall time elapsed since mark into the phase
// histogram and returns a fresh mark for the next phase. Callers guard with
// the telemetry flag, so h is never nil here and disabled telemetry costs
// one boolean test per phase.
func telObserve(h *obs.Histogram, mark time.Time) time.Time {
	now := obs.Now()
	h.Observe(now.Sub(mark).Seconds())
	return now
}

// traceRunEnd emits the terminal run-end event (no-op without a recorder).
func (st *state) traceRunEnd(lastRound int, res *Result, err error) {
	if st.trace == nil {
		return
	}
	e := obs.Event{Type: obs.EvRunEnd, Value: int64(lastRound), Aux: int64(res.Messages)}
	if err != nil {
		e.Err = err.Error()
	}
	st.trace.Emit(e)
}

// traceAbort closes the trace of a run aborting inside round `round`: the
// terminal round event carries the error, preceded by a deadline marker
// when the watchdog fired, then the run-end event. drain controls whether
// staged machine annotations are flushed first: phases that completed
// (protocol/panic aborts, detected after the barrier) drain; a deadline
// abort abandons the phase goroutine mid-flight, so the staging buffers may
// still be written to and must not be touched.
func (st *state) traceAbort(round int, res *Result, err error, phase string, drain bool) {
	if st.trace == nil {
		return
	}
	if drain {
		st.drainNotes(round)
	}
	if errors.Is(err, ErrRoundDeadline) {
		st.trace.Emit(obs.Event{Type: obs.EvDeadline, Round: round, Name: phase})
	}
	st.trace.Emit(obs.Event{Type: obs.EvRoundEnd, Round: round, Err: err.Error()})
	st.traceRunEnd(round, res, err)
}

// validCrashes checks a crash schedule: node indices in [0, n), rounds >= 1.
// Entries are examined in ascending index order so a schedule with several
// invalid entries reports the same one every run — the chaos parity tests
// compare error strings across engine modes.
func validCrashes(crashes map[int]int, n int, source string) error {
	idxs := make([]int, 0, len(crashes))
	for i := range crashes {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		r := crashes[i]
		if i < 0 || i >= n {
			return fmt.Errorf("%w: %s[%d] = %d; node index out of range [0, %d)", ErrConfig, source, i, r, n)
		}
		if r < 1 {
			return fmt.Errorf("%w: %s[%d] = %d; crash rounds are 1-based and must be >= 1", ErrConfig, source, i, r)
		}
	}
	return nil
}

// crashEntry is one scheduled crash; the engine consumes the schedule as a
// sorted list (by round, then node index — the index order fixes the crash
// event emission order within a round) instead of scanning an O(n) map or
// array every round.
type crashEntry struct {
	round int
	node  int32
}

func buildCrashSched(crashes map[int]int) []crashEntry {
	if len(crashes) == 0 {
		return nil
	}
	sched := make([]crashEntry, 0, len(crashes))
	for i, r := range crashes {
		sched = append(sched, crashEntry{round: r, node: int32(i)})
	}
	sort.Slice(sched, func(a, b int) bool {
		if sched[a].round != sched[b].round {
			return sched[a].round < sched[b].round
		}
		return sched[a].node < sched[b].node
	})
	return sched
}

// state holds the engine's mutable execution state in columnar form: flat
// CSR adjacency, one contiguous inbox arena per round, and compact active
// lists over a frontier bitset. Per-node slice-of-slice structures are gone
// from the hot path; what remains per node lives in the flat envs slab.
type state struct {
	cfg  Config
	g    *graph.Graph
	n    int
	envs []Env
	mach []Machine

	// csrOff/csrNbr/csrIDs are the flat CSR edge arrays, built once per Run:
	// node i's neighbors are csrNbr[csrOff[i]:csrOff[i+1]] (node indices)
	// with csrIDs aligned 1:1 holding their identifiers, each range sorted
	// ascending by identifier. NodeInfo.NeighborIDs and the send-validation
	// binary search are views into csrIDs; broadcast routing walks csrNbr
	// ranges directly.
	csrOff []int32
	csrNbr []int32
	csrIDs []int

	// frontier marks the nodes still in the computation; actByIdx (node
	// index order, phase dispatch and inbox layout) and actByID (identifier
	// order, routing) are its compact list forms. Nodes only ever leave the
	// frontier, so both lists are compacted in place at the start of each
	// round in O(live) time.
	frontier    bitset
	actByIdx    []int32
	actByID     []int32
	activeCount int

	// crashSched/crashNext consume the merged crash schedule in round order.
	crashSched []crashEntry
	crashNext  int

	// inbox is the per-round message arena; inMsgs is the slice acquired for
	// the current round. inCnt/inOff/inFill carve it into per-node regions:
	// the counting pass fills inCnt, the offset pass turns it into inOff
	// (region starts) and resets it, and the placement pass advances inFill.
	inbox  msgSlab
	inMsgs []Msg
	inCnt  []int32
	inOff  []int32
	inFill []int32

	// fateCopies/fateSwap record the adversary's verdicts from the counting
	// pass (copies delivered, 0 = dropped; replacement payload or nil) so the
	// placement pass replays them without consulting the adversary twice.
	fateCopies []int32
	fateSwap   []Payload
	// view is the adversary's reusable view of a tagged message (see
	// taggedView); interceptFate refills it per call.
	view taggedView

	// errs[i] records a per-node engine error (e.g. send to non-neighbor).
	errs []error
	// terminatedThisSend marks nodes that terminated during the send phase.
	terminatedThisSend []bool
	// pool is the persistent worker pool (Parallel mode only; nil otherwise);
	// poolAbandoned marks that a deadline abort left a phase goroutine alive
	// on it (or on the lanes' channels), so Run must not close either.
	pool          *workerPool
	poolAbandoned bool

	// lanes/laneOf/exch/shardStats/laneDone are the shard supervisor's state
	// (Config.Shards; nil/empty on the single-engine path). lanes[s] is
	// shard s's engine, laneOf maps node index to shard, exch is the
	// boundary-batch fabric, shardStats the per-shard round ledgers, and
	// laneDone the supervisor's barrier channel. See shard.go.
	lanes      []*laneState
	laneOf     []int32
	exch       *shard.Exchange[slotMsg]
	shardStats []ShardRoundStats
	laneDone   chan struct{}
	// sendFn/receiveFn are the phase functions, bound once so the per-round
	// phase dispatch does not allocate method-value closures.
	sendFn    func(int)
	receiveFn func(int)

	// maxMsgBits/localOnly accumulate Result.MaxMsgBits: the largest sized
	// payload seen (-1 before any), and whether an unsized payload was seen.
	maxMsgBits int
	localOnly  bool
	// roundMsgs/roundBits accumulate the current round's Stats record;
	// the round* adversary counters feed the delivered-vs-injected split.
	roundMsgs         int
	roundBits         int
	roundDropped      int
	roundDroppedBits  int
	roundInjected     int
	roundInjectedBits int
	roundCorrupted    int
	// trace is the attached event recorder (nil = tracing disabled).
	trace *obs.Recorder

	// Pre-resolved telemetry histograms (nil = telemetry disabled): the
	// round loop observes phase wall times into these without any label
	// formatting or map lookups on the hot path.
	telSend, telRoute, telReceive, telRound *obs.Histogram

	// observedOutputs/observedActive back Config.Observer; allocated only
	// when an observer is attached and maintained incrementally (settled
	// nodes never change after leaving the frontier).
	observedOutputs []any
	observedActive  []bool
}

// idSorter sorts a CSR neighbor range ascending by node identifier. It is
// reused across ranges so per-node sorting does not allocate a comparison
// closure per node.
type idSorter struct {
	g   *graph.Graph
	idx []int32
}

func (s *idSorter) Len() int { return len(s.idx) }
func (s *idSorter) Less(a, b int) bool {
	return s.g.ID(int(s.idx[a])) < s.g.ID(int(s.idx[b]))
}
func (s *idSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

func newState(cfg Config, g *graph.Graph, n int, crashes map[int]int) *state {
	st := &state{
		cfg:                cfg,
		g:                  g,
		n:                  n,
		envs:               make([]Env, n),
		mach:               make([]Machine, n),
		frontier:           newBitset(n),
		actByIdx:           make([]int32, n),
		actByID:            make([]int32, n),
		inCnt:              make([]int32, n),
		inOff:              make([]int32, n),
		inFill:             make([]int32, n),
		errs:               make([]error, n),
		terminatedThisSend: make([]bool, n),
		maxMsgBits:         -1,
		trace:              cfg.Trace,
	}
	if cfg.Telemetry != nil {
		shards := cfg.Shards
		if shards < 1 {
			shards = 1
		}
		st.telSend = cfg.Telemetry.RoundHistogram("send", shards)
		st.telRoute = cfg.Telemetry.RoundHistogram("route", shards)
		st.telReceive = cfg.Telemetry.RoundHistogram("receive", shards)
		st.telRound = cfg.Telemetry.RoundHistogram("round", shards)
	}
	st.sendFn = st.sendPhase
	st.receiveFn = st.receivePhase

	// Build the ID-sorted CSR. When identifiers are the identity permutation
	// (the common generator default), the graph's index-sorted adjacency is
	// already ID-sorted and can be aliased without copying or sorting.
	off, adj := g.CSR()
	st.csrOff = off
	identity := true
	for i := 0; i < n; i++ {
		if g.ID(i) != i+1 {
			identity = false
			break
		}
	}
	st.csrIDs = make([]int, len(adj))
	if identity {
		st.csrNbr = adj
		for k, v := range adj {
			st.csrIDs[k] = int(v) + 1
		}
		for i := range st.actByID {
			st.actByID[i] = int32(i)
		}
	} else {
		st.csrNbr = make([]int32, len(adj))
		copy(st.csrNbr, adj)
		srt := idSorter{g: g}
		for i := 0; i < n; i++ {
			srt.idx = st.csrNbr[off[i]:off[i+1]]
			sort.Sort(&srt)
		}
		for k, v := range st.csrNbr {
			st.csrIDs[k] = g.ID(int(v))
		}
		if g.D() == n {
			// Identifiers are a bijection onto {1..n}: place directly.
			for i := 0; i < n; i++ {
				st.actByID[g.ID(i)-1] = int32(i)
			}
		} else {
			for i := range st.actByID {
				st.actByID[i] = int32(i)
			}
			sort.Slice(st.actByID, func(a, b int) bool {
				return g.ID(int(st.actByID[a])) < g.ID(int(st.actByID[b]))
			})
		}
	}

	delta := g.MaxDegree()
	tracing := cfg.Trace != nil
	for i := 0; i < n; i++ {
		info := NodeInfo{
			Index:       i,
			ID:          g.ID(i),
			NeighborIDs: st.csrIDs[off[i]:off[i+1]],
			N:           n,
			D:           g.D(),
			Delta:       delta,
		}
		var pred any
		if cfg.Predictions != nil {
			pred = cfg.Predictions[i]
		}
		e := &st.envs[i]
		e.info = info
		e.tracing = tracing
		st.mach[i] = cfg.Factory(info, pred)
		st.actByIdx[i] = int32(i)
		st.frontier.set(i)
	}
	st.activeCount = n
	// Run has already validated the schedule (indices in range, rounds >= 1).
	st.crashSched = buildCrashSched(crashes)
	if cfg.Observer != nil {
		st.observedOutputs = make([]any, n)
		st.observedActive = make([]bool, n)
		for i := range st.observedActive {
			st.observedActive[i] = true
		}
	}
	return st
}

// beginRound applies the round's scheduled crashes, compacts the active
// lists, and resets the per-round staging of every live node. All work is
// O(live frontier + crashes this round).
//
//dgp:hotpath
func (st *state) beginRound(round int) {
	if st.trace != nil {
		st.trace.Emit(obs.Event{Type: obs.EvRoundStart, Round: round, Value: int64(st.activeCount)})
	}
	for st.crashNext < len(st.crashSched) && st.crashSched[st.crashNext].round <= round {
		i := int(st.crashSched[st.crashNext].node)
		st.crashNext++
		if !st.frontier.test(i) {
			continue
		}
		// Crash takes effect: the node silently leaves the computation.
		st.frontier.clear(i)
		st.activeCount--
		e := &st.envs[i]
		e.outs, e.dst, e.bcast = nil, nil, nil
		if st.trace != nil {
			st.trace.Emit(obs.Event{Type: obs.EvCrash, Round: round, Node: e.info.ID})
		}
		if st.cfg.Observer != nil {
			st.observedActive[i] = false
			if e.hasOutput {
				st.observedOutputs[i] = e.output
			}
		}
	}
	k := 0
	for _, si := range st.actByIdx {
		i := int(si)
		if !st.frontier.test(i) {
			continue
		}
		st.actByIdx[k] = si
		k++
		st.envs[i].round = round
		st.terminatedThisSend[i] = false
	}
	st.actByIdx = st.actByIdx[:k]
	k = 0
	for _, si := range st.actByID {
		if st.frontier.test(int(si)) {
			st.actByID[k] = si
			k++
		}
	}
	st.actByID = st.actByID[:k]
	if st.lanes != nil {
		st.compactLanes()
	}
}

// searchIDs returns the position of id in the ascending slice a, or len(a)
// if absent (caller re-checks the value). Hand-rolled so the send hot path
// never allocates a comparison closure.
//
//dgp:hotpath
func searchIDs(a []int, id int) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// callSend invokes machine i's Send with panic containment: a panic is
// recorded as a per-node ErrMachinePanic instead of unwinding into the
// engine (or a pool worker goroutine, which would crash the process).
//
//dgp:hotpath
func (st *state) callSend(i int) (outs []Out, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			st.errs[i] = fmt.Errorf("%w: node %d, round %d, Send: %v",
				ErrMachinePanic, st.envs[i].info.ID, st.envs[i].round, r)
		}
	}()
	return st.mach[i].Send(&st.envs[i]), true
}

// callReceive is callSend's Receive-phase counterpart.
//
//dgp:hotpath
func (st *state) callReceive(i int) (ok bool) {
	e := &st.envs[i]
	e.inReceive = true
	defer func() {
		e.inReceive = false
		if r := recover(); r != nil {
			st.errs[i] = fmt.Errorf("%w: node %d, round %d, Receive: %v",
				ErrMachinePanic, e.info.ID, e.round, r)
		}
	}()
	st.mach[i].Receive(e, st.inboxFor(i)[st.inOff[i]:st.inFill[i]])
	return true
}

// inboxFor returns the arena holding node i's inbox region for this round:
// the owning lane's arena on the multi-shard path, the global arena
// otherwise (single-engine and 1-shard runs share st.inbox).
//
//dgp:hotpath
func (st *state) inboxFor(i int) []Msg {
	if len(st.lanes) > 1 {
		return st.lanes[st.laneOf[i]].inMsgs
	}
	return st.inMsgs
}

//dgp:hotpath
func (st *state) sendPhase(i int) {
	e := &st.envs[i]
	e.bcastSet = false
	e.bcast = nil
	e.bcastTag = 0
	e.outs = nil
	outs, ok := st.callSend(i)
	if !ok {
		return
	}
	if err := e.err; err != nil {
		st.errs[i] = err
		return
	}
	if e.bcastSet {
		if len(outs) > 0 {
			st.errs[i] = fmt.Errorf("%w: node %d mixed Env.Broadcast with returned sends", ErrProtocol, e.info.ID)
			return
		}
		// The broadcast fast path needs no per-destination validation: the
		// CSR neighbor range is the destination list. One bandwidth check
		// covers every copy.
		if limit := st.cfg.MaxMessageBits; limit > 0 {
			if err := congestCheck(e.info.ID, e.bcast, e.bcastTag, limit); err != nil {
				st.errs[i] = err
				return
			}
		}
		if e.terminated {
			st.terminatedThisSend[i] = true
		}
		return
	}
	e.outs = outs
	nbIDs := st.csrIDs[st.csrOff[i]:st.csrOff[i+1]]
	nbIdx := st.csrNbr[st.csrOff[i]:st.csrOff[i+1]]
	dst := e.dst[:0]
	for k := range outs {
		out := &outs[k]
		pos := searchIDs(nbIDs, out.To)
		if pos == len(nbIDs) || nbIDs[pos] != out.To {
			st.errs[i] = fmt.Errorf("%w: node %d sent to non-neighbor %d", ErrProtocol, e.ID(), out.To)
			return
		}
		dst = append(dst, nbIdx[pos])
		if limit := st.cfg.MaxMessageBits; limit > 0 {
			if err := congestCheck(e.ID(), out.Payload, out.Tag, limit); err != nil {
				st.errs[i] = err
				return
			}
		}
	}
	e.dst = dst
	if e.terminated {
		st.terminatedThisSend[i] = true
	}
}

// congestCheck enforces the CONGEST budget on one sent message: the payload
// must be sized, and the message (tag header included) at most limit bits.
// The error names the payload's own type, never a wrapper.
//
//dgp:hotpath
func congestCheck(id int, payload Payload, tag uint32, limit int) error {
	b := msgBits(payload, tag)
	if b < 0 {
		return fmt.Errorf("%w: node %d sent an unsized payload %T", ErrCongestViolation, id, payload)
	}
	if b > limit {
		return fmt.Errorf("%w: node %d sent %d bits (limit %d)", ErrCongestViolation, id, b, limit)
	}
	return nil
}

//dgp:hotpath
func (st *state) receivePhase(i int) {
	if st.terminatedThisSend[i] {
		return
	}
	if !st.callReceive(i) {
		return
	}
	if err := st.envs[i].err; err != nil {
		st.errs[i] = err
	}
}

// route delivers this round's messages into the inbox arena in three
// columnar passes, all on the engine's main goroutine in both modes:
//
//  1. counting — walk senders in ascending identifier order, apply the
//     model-level drop rules, consult the adversary once per surviving
//     message (recording its fate), book every delivery/drop ledger, and
//     count arriving copies per destination;
//  2. offsets — prefix-sum the counts over the live frontier into per-node
//     arena regions;
//  3. placement — walk the same sender order again, replaying recorded
//     fates, and write messages into their regions by batch copy.
//
// Inbox regions come out sorted by sender identifier exactly as the legacy
// per-message append routing produced them, and the adversary and trace
// observe the identical per-message call and event sequence — the parity
// and trace-golden tests pin both.
//
//dgp:hotpath
func (st *state) route(round int, res *Result) {
	st.roundMsgs, st.roundBits = 0, 0
	st.roundDropped, st.roundDroppedBits = 0, 0
	st.roundInjected, st.roundInjectedBits = 0, 0
	st.roundCorrupted = 0
	adv := st.cfg.Adversary
	tr := st.trace
	clear(st.fateSwap)
	st.fateCopies = st.fateCopies[:0]
	st.fateSwap = st.fateSwap[:0]
	total := 0
	for _, si := range st.actByID {
		i := int(si)
		e := &st.envs[i]
		from := e.info.ID
		batchMsgs, batchBits := 0, 0
		if e.bcastSet {
			payload, tag := e.bcast, e.bcastTag
			dsts := st.csrNbr[st.csrOff[i]:st.csrOff[i+1]]
			if adv == nil {
				// Uniform batch: count survivors, then account the whole
				// neighbor range with a single payload-size lookup.
				delivered := 0
				for _, dj := range dsts {
					j := int(dj)
					if !st.frontier.test(j) || st.terminatedThisSend[j] {
						continue
					}
					st.inCnt[j]++
					delivered++
				}
				if delivered > 0 {
					total += delivered
					st.account(payload, tag, delivered, &batchMsgs, &batchBits, res)
				}
			} else {
				for _, dj := range dsts {
					j := int(dj)
					if !st.frontier.test(j) || st.terminatedThisSend[j] {
						continue
					}
					copies, pl, plTag := st.consultAdversary(round, from, j, payload, tag, res, tr)
					if copies == 0 {
						continue
					}
					st.inCnt[j] += int32(copies)
					total += copies
					st.account(pl, plTag, copies, &batchMsgs, &batchBits, res)
				}
			}
		} else {
			outs := e.outs
			for k := range outs {
				j := int(e.dst[k])
				// Messages to nodes that already left the computation vanish;
				// a node terminating during this round's send phase has, by
				// the model, already assigned all outputs, so deliveries to
				// it are moot and are dropped as well. The adversary is
				// consulted only for messages that survive these rules.
				if !st.frontier.test(j) || st.terminatedThisSend[j] {
					continue
				}
				payload, tag := outs[k].Payload, outs[k].Tag
				copies := 1
				if adv != nil {
					copies, payload, tag = st.consultAdversary(round, from, j, payload, tag, res, tr)
					if copies == 0 {
						continue
					}
				}
				st.inCnt[j] += int32(copies)
				total += copies
				st.account(payload, tag, copies, &batchMsgs, &batchBits, res)
			}
		}
		st.roundMsgs += batchMsgs
		st.roundBits += batchBits
		if tr != nil && batchMsgs > 0 {
			tr.Emit(obs.Event{Type: obs.EvBatch, Round: round, Node: from, Value: int64(batchMsgs), Aux: int64(batchBits)})
		}
	}

	st.inMsgs = st.inbox.acquire(total)
	cur := int32(0)
	for _, si := range st.actByIdx {
		i := int(si)
		st.inOff[i] = cur
		cur += st.inCnt[i]
		st.inFill[i] = st.inOff[i]
		st.inCnt[i] = 0
	}

	fi := 0
	for _, si := range st.actByID {
		i := int(si)
		e := &st.envs[i]
		from := e.info.ID
		if e.bcastSet {
			m := Msg{From: from, Payload: e.bcast, Tag: e.bcastTag}
			dsts := st.csrNbr[st.csrOff[i]:st.csrOff[i+1]]
			if adv == nil {
				for _, dj := range dsts {
					j := int(dj)
					if !st.frontier.test(j) || st.terminatedThisSend[j] {
						continue
					}
					st.inMsgs[st.inFill[j]] = m
					st.inFill[j]++
				}
			} else {
				for _, dj := range dsts {
					j := int(dj)
					if !st.frontier.test(j) || st.terminatedThisSend[j] {
						continue
					}
					fi = st.place(j, m, fi)
				}
			}
		} else {
			outs := e.outs
			for k := range outs {
				j := int(e.dst[k])
				if !st.frontier.test(j) || st.terminatedThisSend[j] {
					continue
				}
				m := Msg{From: from, Payload: outs[k].Payload, Tag: outs[k].Tag}
				if adv == nil {
					st.inMsgs[st.inFill[j]] = m
					st.inFill[j]++
					continue
				}
				fi = st.place(j, m, fi)
			}
		}
	}
}

// place writes one recorded-fate message into destination j's arena region
// and returns the advanced fate cursor. A replaced payload is delivered
// untagged.
//
//dgp:hotpath
func (st *state) place(j int, m Msg, fi int) int {
	copies := int(st.fateCopies[fi])
	if swap := st.fateSwap[fi]; swap != nil {
		m.Payload, m.Tag = swap, 0
	}
	fi++
	if copies == 0 {
		return fi
	}
	f := st.inFill[j]
	for c := 0; c < copies; c++ {
		st.inMsgs[f] = m
		f++
	}
	st.inFill[j] = f
	return fi
}

// account books count delivered copies of a message: the sender's trace
// batch, the round and result message ledgers, and the MaxMsgBits /
// LOCAL-only accumulators. One call covers a whole uniform batch.
//
//dgp:hotpath
func (st *state) account(payload Payload, tag uint32, count int, batchMsgs, batchBits *int, res *Result) {
	*batchMsgs += count
	res.Messages += count
	// msgBits, spelled out: account runs once per delivered message on the
	// returned-Out path, and the helper is too costly to inline.
	b := -1
	if bs, ok := payload.(BitSized); ok {
		b = bs.Bits()
		if tag != 0 {
			b += TagHeaderBits
		}
	}
	if b < 0 {
		// An unsized payload, tagged or not, makes the run LOCAL-only.
		st.localOnly = true
		return
	}
	*batchBits += count * b
	if b > st.maxMsgBits {
		st.maxMsgBits = b
	}
}

// consultAdversary intercepts one in-flight message: it returns the
// delivered copy count (0 = dropped) with the possibly-replaced payload and
// its tag (0 once replaced), books the adversary ledgers, emits the fault
// events, and records the fate for the placement pass. The call sequence —
// senders by ascending identifier, each sender's messages in send order —
// is identical in both engine modes and identical to the legacy
// per-message router.
//
//dgp:hotpath
func (st *state) consultAdversary(round, from, j int, payload Payload, tag uint32, res *Result, tr *obs.Recorder) (int, Payload, uint32) {
	copies, pl, plTag, swap := st.interceptFate(round, from, j, payload, tag, res, tr)
	if copies == 0 {
		st.fateCopies = append(st.fateCopies, 0)
		st.fateSwap = append(st.fateSwap, nil)
		return 0, nil, 0
	}
	st.fateCopies = append(st.fateCopies, int32(copies))
	st.fateSwap = append(st.fateSwap, swap)
	return copies, pl, plTag
}

// interceptFate is the adversary verdict core shared by the single-engine
// and sharded counting passes: one Intercept call, the drop/corrupt/inject
// ledgers, and the fault events. It returns the copy count and the
// delivered payload and tag; the caller records the fate (copies; swap,
// nil when the payload was untouched) into its replay stream. A tagged
// message reaches the adversary as the engine's header-inclusive view, and
// a replacement payload is delivered untagged.
//
//dgp:hotpath
func (st *state) interceptFate(round, from, j int, payload Payload, tag uint32, res *Result, tr *obs.Recorder) (int, Payload, uint32, Payload) {
	to := st.envs[j].info.ID
	seen := payload
	if tag != 0 {
		st.view = taggedView{payload: payload, tag: tag}
		seen = &st.view
	}
	fate := st.cfg.Adversary.Intercept(round, from, to, seen)
	st.view.payload = nil
	if fate.Drop {
		// Dropped traffic goes on its own ledger, never into Messages/Bits:
		// the bandwidth numbers stay delivery-only.
		db := 0
		if b := msgBits(payload, tag); b > 0 {
			db = b
		}
		st.roundDropped++
		st.roundDroppedBits += db
		res.Dropped++
		res.DroppedBits += db
		if tr != nil {
			tr.Emit(obs.Event{Type: obs.EvFault, Round: round, Node: from, Name: "drop", Value: int64(db), Aux: int64(to)})
		}
		return 0, nil, 0, nil
	}
	var swap Payload
	if fate.Payload != nil {
		// An adversary handing the view itself back corrupts nothing on the
		// wire: the original tagged message is delivered. (The comparison
		// runs only for tagged messages, against the view's pointer type,
		// so it cannot panic on an uncomparable payload.)
		if tag == 0 || fate.Payload != seen {
			payload, tag = fate.Payload, 0
			swap = fate.Payload
		}
		st.roundCorrupted++
		res.Corrupted++
		if tr != nil {
			tr.Emit(obs.Event{Type: obs.EvFault, Round: round, Node: from, Name: "corrupt", Aux: int64(to)})
		}
	}
	copies := 1
	if fate.Extra > 0 {
		copies += fate.Extra
		st.roundInjected += fate.Extra
		res.Injected += fate.Extra
		if tr != nil {
			tr.Emit(obs.Event{Type: obs.EvFault, Round: round, Node: from, Name: "duplicate", Value: int64(fate.Extra), Aux: int64(to)})
		}
	}
	if copies > 1 {
		if b := msgBits(payload, tag); b > 0 {
			st.roundInjectedBits += (copies - 1) * b
		}
	}
	return copies, payload, tag, swap
}

//dgp:hotpath
func (st *state) endRound(round int, res *Result) {
	if st.trace != nil {
		st.drainNotes(round)
	}
	observing := st.cfg.Observer != nil
	for _, si := range st.actByIdx {
		i := int(si)
		e := &st.envs[i]
		if e.terminated {
			st.frontier.clear(i)
			st.activeCount--
			res.Outputs[i] = e.output
			res.TerminatedAt[i] = round
			res.Rounds = round
			if st.trace != nil {
				st.trace.Emit(outputEvent(round, e))
			}
			// Release the settled node's routing references; its frontier bit
			// stays clear for the rest of the run.
			e.outs, e.dst, e.bcast = nil, nil, nil
			if observing {
				st.observedOutputs[i] = e.output
				st.observedActive[i] = false
			}
			continue
		}
		if observing {
			if e.hasOutput {
				st.observedOutputs[i] = e.output
			} else {
				st.observedOutputs[i] = nil
			}
			st.observedActive[i] = true
		}
	}
}

// outputEvent builds the decision-commit event for a node terminating this
// round: integer outputs ride in Value, anything else is named by type.
func outputEvent(round int, e *Env) obs.Event {
	ev := obs.Event{Type: obs.EvOutput, Round: round, Node: e.info.ID}
	switch v := e.output.(type) {
	case int:
		ev.Value = int64(v)
	case bool:
		if v {
			ev.Value = 1
		}
	default:
		ev.Text = fmt.Sprintf("%T", e.output)
	}
	return ev
}

// drainNotes flushes the machines' staged annotations as span events, in
// node-index order over the live frontier. It runs on the main goroutine
// strictly after a phase barrier, which is what makes worker-goroutine
// staging race-free and the emission order identical across engine modes.
//
//dgp:hotpath
func (st *state) drainNotes(round int) {
	for _, si := range st.actByIdx {
		e := &st.envs[si]
		for _, nt := range e.notes {
			st.trace.Emit(obs.Event{Type: obs.EvSpan, Round: round, Node: e.info.ID, Name: nt.Name, Value: nt.Value})
		}
		e.notes = e.notes[:0]
	}
}

// firstError returns the first per-node error in node-index order (actByIdx
// is index-sorted, so the reported error is deterministic across modes).
//
//dgp:hotpath
func (st *state) firstError() error {
	for _, si := range st.actByIdx {
		if err := st.errs[si]; err != nil {
			return err
		}
	}
	return nil
}

// phase executes one send or receive phase, under the round deadline when
// one is configured. On a deadline hit the phase goroutine is abandoned (a
// wedged machine cannot be preempted) and the run aborts with a diagnostic;
// in pool mode the abandoned goroutine may still be mid-dispatch on the
// pool, so the pool is abandoned (leaked) with it rather than closed
// underneath it — a deadline abort is terminal by contract.
func (st *state) phase(fn func(int), round int, name string) error {
	if st.cfg.RoundDeadline <= 0 {
		st.runPhase(fn)
		return nil
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		st.runPhase(fn)
	}()
	timer := time.NewTimer(st.cfg.RoundDeadline)
	defer timer.Stop()
	select {
	case <-done:
		return nil
	case <-timer.C:
		st.poolAbandoned = st.pool != nil || st.lanes != nil
		return fmt.Errorf("%w: %s phase of round %d ran past %v (%d nodes active); abandoning the run",
			ErrRoundDeadline, name, round, st.cfg.RoundDeadline, st.activeCount)
	}
}

// runPhase executes phase(i) for every node on the live frontier: across
// the shard lanes in sharded mode, on the persistent pool in Parallel mode,
// inline otherwise.
//
//dgp:hotpath
func (st *state) runPhase(phase func(int)) {
	if st.lanes != nil {
		st.lanePhase(phase)
		return
	}
	if st.pool != nil {
		st.pool.run(phase, st.actByIdx)
		return
	}
	for _, si := range st.actByIdx {
		phase(int(si))
	}
}

// poolTask is one phase dispatch to one worker: the phase function and the
// worker's contiguous share of the frontier list.
type poolTask struct {
	phase func(int)
	nodes []int32
}

// workerPool is a persistent pool of goroutines, created once per Run. Each
// phase, run splits the live frontier list into contiguous per-worker ranges
// of the shared columnar slabs and blocks until all workers signal done; run
// acts as the inter-phase barrier, which realizes the synchronous round
// structure without spawning a goroutine wave per phase per round.
type workerPool struct {
	work []chan poolTask
	done chan struct{}
}

func newWorkerPool(n int) *workerPool {
	return newWorkerPoolN(n, runtime.GOMAXPROCS(0))
}

// newWorkerPoolN builds a pool of at most workers goroutines for n nodes
// (nil when one worker would remain — the caller runs inline). The sharded
// engine uses it to split GOMAXPROCS across per-lane pools.
func newWorkerPoolN(n, workers int) *workerPool {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return nil
	}
	p := &workerPool{done: make(chan struct{}, workers)}
	for w := 0; w < workers; w++ {
		ch := make(chan poolTask, 1)
		p.work = append(p.work, ch)
		go func(ch chan poolTask) {
			for t := range ch {
				for _, si := range t.nodes {
					t.phase(int(si))
				}
				p.done <- struct{}{}
			}
		}(ch)
	}
	return p
}

// run executes phase on every worker's share of the frontier and returns
// once all workers have finished (the barrier).
//
//dgp:hotpath
func (p *workerPool) run(phase func(int), nodes []int32) {
	chunk := (len(nodes) + len(p.work) - 1) / len(p.work)
	if chunk < 1 {
		chunk = 1
	}
	for w, ch := range p.work {
		lo := w * chunk
		if lo > len(nodes) {
			lo = len(nodes)
		}
		hi := lo + chunk
		if hi > len(nodes) {
			hi = len(nodes)
		}
		ch <- poolTask{phase: phase, nodes: nodes[lo:hi]}
	}
	for range p.work {
		<-p.done
	}
}

// close shuts the workers down; the pool must not be used afterwards.
func (p *workerPool) close() {
	for _, ch := range p.work {
		close(ch)
	}
}
