package runtime

// This file hosts the shard supervisor behind Config.Shards: S independent
// shard engines ("lanes"), each owning a disjoint slice of the frontier, its
// own inbox arena, and (in Parallel mode) its own worker pool, exchanging
// boundary-edge message batches at the round barrier over the typed-channel
// fabric in internal/shard.
//
// The determinism contract — results, error surfaces, and trace streams
// byte-identical for every shard count — rests on a strict division of
// labor between the supervisor (Run's goroutine) and the lanes:
//
//   - Everything order-sensitive stays serial on the supervisor: the
//     counting pass walks senders in global ascending-identifier order, so
//     the adversary sees the exact call sequence of the single-engine
//     router, the ledgers and EvBatch/EvFault events accrue identically,
//     and every delivery's arena slot (destination region + within-region
//     cursor) is fixed before any lane moves a byte.
//   - Everything embarrassingly parallel fans out to the lanes: the machine
//     send/receive phases, and the placement pass, where each lane replays
//     its own senders' recorded fates, writes local deliveries straight
//     into its own arena, and ships boundary deliveries — slot included —
//     to the owning lane. Lanes write only their own arenas, so placement
//     needs no locks, and because slots were assigned serially, the arena
//     contents come out byte-identical to the single-engine layout no
//     matter how the exchange interleaves.
//
// A 1-shard run degenerates to the single-engine code path (legacy route,
// global arena) dispatched through one lane, which is what makes the
// 1-shard ≡ seq half of the parity contract exact rather than merely
// equivalent.

import (
	"runtime"

	"repro/internal/obs"
	"repro/internal/shard"
)

// slotMsg is one boundary delivery in flight between lanes: the message and
// its precomputed slot in the destination lane's arena. Slots are assigned
// during the serial counting pass, so the receiving lane writes each
// message straight to its place with no per-message coordination.
type slotMsg struct {
	slot int32
	msg  Msg
}

// laneCmd is one unit of work dispatched to a lane runner: a machine phase
// to run over the lane's frontier, or (nil phase) the placement pass.
type laneCmd struct {
	phase func(int)
}

// laneState is one shard engine. The lane owns the shard's compact active
// lists, its inbox arena, the replay streams for messages its nodes sent,
// its boundary staging buffers, and a runner goroutine (plus an optional
// inner worker pool) driven by the supervisor's command channel.
type laneState struct {
	st *state
	id int32
	// actByIdx/actByID are the lane's active lists — the subsequences of the
	// global lists owned by this shard, maintained in the same two orders
	// (node index for phase dispatch and arena layout, identifier for
	// routing replay).
	actByIdx []int32
	actByID  []int32
	// inbox is the lane-local arena; inMsgs the slice acquired for the
	// round. The global inOff/inFill carve it into per-node regions.
	inbox  msgSlab
	inMsgs []Msg
	// total is the lane's delivery count for the round (set by counting).
	total int
	// fateCopies/fateSwap replay the adversary's verdicts for messages sent
	// by this lane's nodes; within replays each surviving message's
	// destination-region cursor. All three are appended by the supervisor's
	// serial counting pass and consumed by this lane's placement pass.
	fateCopies []int32
	fateSwap   []Payload
	within     []int32
	// outB[d] stages boundary deliveries for lane d, reused across rounds
	// (refilled only after the next round's counting barrier, per the
	// Exchange handover contract).
	outB [][]slotMsg
	// cmds drives the runner; the supervisor waits on st.laneDone after each
	// dispatch wave — that wait is the intra-round barrier.
	cmds chan laneCmd
	// pool is the lane's inner worker pool (Parallel mode; nil otherwise).
	pool *workerPool
}

// initLanes attaches the shard supervisor to a fresh state: one lane per
// shard with its own active lists, arena, and runner goroutine, plus the
// exchange fabric and per-shard ledgers for multi-shard runs. In Parallel
// mode each lane gets an inner pool splitting GOMAXPROCS.
func (st *state) initLanes(part *shard.Partition) {
	s := part.S
	st.laneOf = part.Of
	st.lanes = make([]*laneState, s)
	st.laneDone = make(chan struct{}, s)
	if s > 1 {
		st.exch = shard.NewExchange[slotMsg](s)
		st.shardStats = make([]ShardRoundStats, s)
	}
	workers := 0
	if st.cfg.Parallel {
		workers = (runtime.GOMAXPROCS(0) + s - 1) / s
	}
	for sh := 0; sh < s; sh++ {
		nodes := part.Nodes[sh]
		ls := &laneState{st: st, id: int32(sh), cmds: make(chan laneCmd, 1)}
		ls.actByIdx = make([]int32, len(nodes))
		copy(ls.actByIdx, nodes)
		ls.actByID = make([]int32, 0, len(nodes))
		if s > 1 {
			ls.outB = make([][]slotMsg, s)
		}
		if workers > 1 {
			ls.pool = newWorkerPoolN(len(nodes), workers)
		}
		st.lanes[sh] = ls
		go ls.run()
	}
	// The lanes' identifier-order lists are the global list filtered by
	// owner, preserving the global order within each lane.
	for _, si := range st.actByID {
		ls := st.lanes[st.laneOf[si]]
		ls.actByID = append(ls.actByID, si)
	}
}

// closeLanes shuts the lane runners and their pools down. Callable only
// between barriers (no command in flight); Run skips it after a deadline
// abort, which may have left the dispatching goroutine mid-send.
func (st *state) closeLanes() {
	for _, ls := range st.lanes {
		close(ls.cmds)
		if ls.pool != nil {
			ls.pool.close()
		}
	}
}

// run is the lane's runner goroutine: it executes dispatched machine phases
// over the lane's frontier (on the inner pool when present) and the
// placement pass, signalling the supervisor's barrier after each command.
func (ls *laneState) run() {
	for cmd := range ls.cmds {
		if cmd.phase != nil {
			if ls.pool != nil {
				ls.pool.run(cmd.phase, ls.actByIdx)
			} else {
				for _, si := range ls.actByIdx {
					cmd.phase(int(si))
				}
			}
		} else {
			ls.place()
		}
		ls.st.laneDone <- struct{}{}
	}
}

// lanePhase runs one machine phase on every lane concurrently and waits for
// all of them — the sharded engine's phase barrier.
//
//dgp:hotpath
func (st *state) lanePhase(phase func(int)) {
	for _, ls := range st.lanes {
		ls.cmds <- laneCmd{phase: phase}
	}
	for range st.lanes {
		<-st.laneDone
	}
}

// compactLanes drops settled nodes from every lane's active lists,
// mirroring beginRound's global compaction. O(live frontier) per round.
//
//dgp:hotpath
func (st *state) compactLanes() {
	for _, ls := range st.lanes {
		k := 0
		for _, si := range ls.actByIdx {
			if st.frontier.test(int(si)) {
				ls.actByIdx[k] = si
				k++
			}
		}
		ls.actByIdx = ls.actByIdx[:k]
		k = 0
		for _, si := range ls.actByID {
			if st.frontier.test(int(si)) {
				ls.actByID[k] = si
				k++
			}
		}
		ls.actByID = ls.actByID[:k]
	}
}

// routeSharded is the multi-shard router: the serial counting pass of the
// single-engine route (identical adversary calls, ledgers, and events) plus
// slot assignment and per-shard ledgers, then per-lane offsets, then the
// concurrent placement-and-exchange pass on the lanes. See the file comment
// for why this split preserves byte-identical arenas and traces.
//
//dgp:hotpath
func (st *state) routeSharded(round int, res *Result) {
	st.roundMsgs, st.roundBits = 0, 0
	st.roundDropped, st.roundDroppedBits = 0, 0
	st.roundInjected, st.roundInjectedBits = 0, 0
	st.roundCorrupted = 0
	for k := range st.shardStats {
		st.shardStats[k] = ShardRoundStats{}
	}
	for _, ls := range st.lanes {
		clear(ls.fateSwap)
		ls.fateCopies = ls.fateCopies[:0]
		ls.fateSwap = ls.fateSwap[:0]
		ls.within = ls.within[:0]
		ls.total = 0
	}
	adv := st.cfg.Adversary
	tr := st.trace
	for _, si := range st.actByID {
		i := int(si)
		e := &st.envs[i]
		from := e.info.ID
		sl := st.lanes[st.laneOf[i]]
		batchMsgs, batchBits := 0, 0
		if e.bcastSet {
			payload, tag := e.bcast, e.bcastTag
			dsts := st.csrNbr[st.csrOff[i]:st.csrOff[i+1]]
			if adv == nil {
				delivered := 0
				for _, dj := range dsts {
					j := int(dj)
					if !st.frontier.test(j) || st.terminatedThisSend[j] {
						continue
					}
					st.countShard(sl, j, 1, payload, tag)
					delivered++
				}
				if delivered > 0 {
					st.account(payload, tag, delivered, &batchMsgs, &batchBits, res)
				}
			} else {
				for _, dj := range dsts {
					j := int(dj)
					if !st.frontier.test(j) || st.terminatedThisSend[j] {
						continue
					}
					copies, pl, plTag := st.consultAdversaryLane(sl, round, from, j, payload, tag, res, tr)
					if copies == 0 {
						continue
					}
					st.countShard(sl, j, copies, pl, plTag)
					st.account(pl, plTag, copies, &batchMsgs, &batchBits, res)
				}
			}
		} else {
			outs := e.outs
			for k := range outs {
				j := int(e.dst[k])
				if !st.frontier.test(j) || st.terminatedThisSend[j] {
					continue
				}
				payload, tag := outs[k].Payload, outs[k].Tag
				copies := 1
				if adv != nil {
					copies, payload, tag = st.consultAdversaryLane(sl, round, from, j, payload, tag, res, tr)
					if copies == 0 {
						continue
					}
				}
				st.countShard(sl, j, copies, payload, tag)
				st.account(payload, tag, copies, &batchMsgs, &batchBits, res)
			}
		}
		st.roundMsgs += batchMsgs
		st.roundBits += batchBits
		if tr != nil && batchMsgs > 0 {
			tr.Emit(obs.Event{Type: obs.EvBatch, Round: round, Node: from, Value: int64(batchMsgs), Aux: int64(batchBits)})
		}
	}

	// Offsets: per-lane prefix sums over each lane's frontier carve each
	// lane's arena; region layout within a lane matches the single-engine
	// layout restricted to the lane's nodes.
	for _, ls := range st.lanes {
		ls.inMsgs = ls.inbox.acquire(ls.total)
		cur := int32(0)
		for _, si := range ls.actByIdx {
			i := int(si)
			st.inOff[i] = cur
			cur += st.inCnt[i]
			st.inFill[i] = cur
			st.inCnt[i] = 0
		}
	}

	// Placement and exchange: every lane concurrently replays its senders'
	// fates and fills the arenas (laneCmd zero value selects place).
	for _, ls := range st.lanes {
		ls.cmds <- laneCmd{}
	}
	for range st.lanes {
		<-st.laneDone
	}

	st.emitShardLedgers(round)
}

// countShard books one surviving message during the sharded counting pass:
// the slot cursor for the sender's replay stream, the destination's region
// count and lane total, and the per-shard delivered/injected/boundary
// ledgers.
//
//dgp:hotpath
func (st *state) countShard(src *laneState, j, copies int, payload Payload, tag uint32) {
	dst := st.laneOf[j]
	src.within = append(src.within, st.inCnt[j])
	st.inCnt[j] += int32(copies)
	st.lanes[dst].total += copies
	b := msgBits(payload, tag)
	if b < 0 {
		b = 0
	}
	ss := &st.shardStats[dst]
	ss.Delivered += copies
	ss.DeliveredBits += copies * b
	if copies > 1 {
		ss.Injected += copies - 1
		ss.InjectedBits += (copies - 1) * b
	}
	if dst != src.id {
		out := &st.shardStats[src.id]
		out.BoundaryOut += copies
		out.BoundaryOutBits += copies * b
	}
}

// consultAdversaryLane is consultAdversary recording the fate into the
// sending lane's replay stream instead of the global one.
//
//dgp:hotpath
func (st *state) consultAdversaryLane(ls *laneState, round, from, j int, payload Payload, tag uint32, res *Result, tr *obs.Recorder) (int, Payload, uint32) {
	copies, pl, plTag, swap := st.interceptFate(round, from, j, payload, tag, res, tr)
	if copies == 0 {
		ls.fateCopies = append(ls.fateCopies, 0)
		ls.fateSwap = append(ls.fateSwap, nil)
		return 0, nil, 0
	}
	ls.fateCopies = append(ls.fateCopies, int32(copies))
	ls.fateSwap = append(ls.fateSwap, swap)
	return copies, pl, plTag
}

// place is the lane's placement-and-exchange pass: replay the counting
// pass's verdicts over this lane's senders, write local deliveries straight
// into the lane arena, stage boundary deliveries per destination lane, then
// post the batches and drain the inbound ones into their precomputed slots.
// Runs concurrently across lanes; each lane writes only its own arena.
//
//dgp:hotpath
func (ls *laneState) place() {
	st := ls.st
	for d := range ls.outB {
		// Stale slotMsgs hold payload references; release them before
		// truncating, exactly like the arena's stale-tail clear.
		clear(ls.outB[d])
		ls.outB[d] = ls.outB[d][:0]
	}
	adv := st.cfg.Adversary != nil
	fi, wi := 0, 0
	for _, si := range ls.actByID {
		i := int(si)
		e := &st.envs[i]
		from := e.info.ID
		if e.bcastSet {
			bm := Msg{From: from, Payload: e.bcast, Tag: e.bcastTag}
			dsts := st.csrNbr[st.csrOff[i]:st.csrOff[i+1]]
			for _, dj := range dsts {
				j := int(dj)
				if !st.frontier.test(j) || st.terminatedThisSend[j] {
					continue
				}
				m, copies := bm, 1
				if adv {
					copies, fi = ls.replay(&m, fi)
					if copies == 0 {
						continue
					}
				}
				wi = ls.deliver(j, m, copies, wi)
			}
		} else {
			outs := e.outs
			for k := range outs {
				j := int(e.dst[k])
				if !st.frontier.test(j) || st.terminatedThisSend[j] {
					continue
				}
				m := Msg{From: from, Payload: outs[k].Payload, Tag: outs[k].Tag}
				copies := 1
				if adv {
					copies, fi = ls.replay(&m, fi)
					if copies == 0 {
						continue
					}
				}
				wi = ls.deliver(j, m, copies, wi)
			}
		}
	}
	self := int(ls.id)
	for d := range st.lanes {
		if d != self {
			st.exch.Post(self, d, ls.outB[d])
		}
	}
	for _, b := range st.exch.Collect(self) {
		for _, sm := range b.Msgs {
			ls.inMsgs[sm.slot] = sm.msg
		}
	}
}

// replay applies the counting pass's recorded fate fi to m — a replaced
// payload is delivered untagged — and returns the copy count (0 = dropped)
// with the advanced fate cursor.
//
//dgp:hotpath
func (ls *laneState) replay(m *Msg, fi int) (int, int) {
	if swap := ls.fateSwap[fi]; swap != nil {
		m.Payload, m.Tag = swap, 0
	}
	return int(ls.fateCopies[fi]), fi + 1
}

// deliver writes copies of m for destination j at the slot the counting
// pass recorded for this sender stream — directly into the lane arena when
// j is local, staged for the boundary exchange otherwise. Returns the
// advanced within-cursor.
//
//dgp:hotpath
func (ls *laneState) deliver(j int, m Msg, copies, wi int) int {
	st := ls.st
	slot := st.inOff[j] + ls.within[wi]
	wi++
	if d := st.laneOf[j]; d != ls.id {
		ob := ls.outB[d]
		for c := 0; c < copies; c++ {
			ob = append(ob, slotMsg{slot: slot, msg: m})
			slot++
		}
		ls.outB[d] = ob
		return wi
	}
	for c := 0; c < copies; c++ {
		ls.inMsgs[slot] = m
		slot++
	}
	return wi
}

// emitShardLedgers publishes the round's per-shard ledgers as
// EvShardExchange events, shards ascending, skipping zero entries: one
// "delivered" (and "injected" under duplication) event per shard that
// received traffic, one "boundary" per shard that exported any. Emitted
// from the supervisor strictly after the placement barrier.
func (st *state) emitShardLedgers(round int) {
	if st.trace == nil {
		return
	}
	for s := range st.shardStats {
		ss := &st.shardStats[s]
		if ss.Delivered > 0 {
			st.trace.Emit(obs.Event{Type: obs.EvShardExchange, Round: round, Node: s, Name: "delivered", Value: int64(ss.Delivered), Aux: int64(ss.DeliveredBits)})
		}
		if ss.Injected > 0 {
			st.trace.Emit(obs.Event{Type: obs.EvShardExchange, Round: round, Node: s, Name: "injected", Value: int64(ss.Injected), Aux: int64(ss.InjectedBits)})
		}
		if ss.BoundaryOut > 0 {
			st.trace.Emit(obs.Event{Type: obs.EvShardExchange, Round: round, Node: s, Name: "boundary", Value: int64(ss.BoundaryOut), Aux: int64(ss.BoundaryOutBits)})
		}
	}
}
