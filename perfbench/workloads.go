package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro"
	"repro/internal/check"
	"repro/internal/heal"
	"repro/internal/problem"
	"repro/internal/runtime"
)

// A workload is a seeded, closed-loop op stream: op i's inputs depend only
// on the workload seed, i and (for sessions) the state earlier ops left.
type workload interface {
	// setup builds the inputs from the seed and returns the graph
	// generators' share of its time. A traced setup attaches tr's hooks.
	setup(tr *tracer) (graphBuild time.Duration, err error)
	// period is the length of the op mix; runs end on a whole number of
	// periods so every mix entry is equally represented.
	period() int
	// minOps is the fewest ops a timed run makes, a whole number of
	// periods: enough that op_ms.p90 has ten samples beyond it and the
	// deterministic counts, taken over the first minOps ops, vary little
	// from seed to seed.
	minOps() int
	// op runs op i: untraced through the public API when tr is nil, split
	// into its layer calls when tr is set. Only the layer calls are timed;
	// preparing inputs and checking outputs are not.
	op(i int, tr *tracer) outcome
}

// outcome is one op's record.
type outcome struct {
	wall     time.Duration // the timed region
	rounds   int           // simulated rounds, primary plus recovery
	msgs     int           // delivered messages
	recourse int           // nodes whose output differs from the op's starting state
	digest   uint64        // hash of the op's output
	fail     string        // why the op failed; empty when it succeeded
}

// Workload names, in BENCHMARK.json order.
var workloadNames = []string{"oneshot-ba", "session-churn", "chaos-sharded"}

// scale sets a workload's size; the benchmark runs fullScale, the
// self-tests a small one.
type scale struct {
	n     int // nodes
	chaos int // nodes of the chaos-sharded graph
}

var fullScale = scale{n: 20000, chaos: 10000}

func newWorkload(name string, seed int64, sc scale) (workload, error) {
	switch name {
	case "oneshot-ba":
		return &oneshot{seed: seed, n: sc.n}, nil
	case "session-churn":
		return &churn{seed: seed, n: sc.n}, nil
	case "chaos-sharded":
		return &chaos{seed: seed, n: sc.chaos}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// Seed streams: each input kind draws from its own stream of the workload
// seed, so changing one kind's consumption leaves the others unchanged.
const (
	streamGraph = iota + 1
	streamTree
	streamPreds
	streamChaos
	streamUpdates
)

// subSeed derives the seed of item i of a stream (splitmix64 finalizer).
func subSeed(seed int64, stream, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)<<40 + uint64(i)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}

func digestOf(text string, vecs ...[]int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(text))
	var b [8]byte
	for _, vec := range vecs {
		for _, x := range vec {
			for k := range b {
				b[k] = byte(uint64(x) >> (8 * k))
			}
			h.Write(b[:])
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

func differing(a, b []int) int {
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

// ---- oneshot-ba ----------------------------------------------------------

type mixEntry struct{ problem, alg string }

// oneshotMix is the fixed op cycle of oneshot-ba.
var oneshotMix = []mixEntry{
	{"mis", "simple"}, {"mis", "consecutive"}, {"mis", "interleaved"}, {"mis", "parallel"},
	{"matching", "simple"}, {"matching", "parallel"},
	{"vcolor", "simple"}, {"vcolor", "parallel"},
	{"ecolor", "simple"}, {"ecolor", "parallel"},
	{"tree", "simple"}, {"tree", "parallel"},
}

// oneshot runs what dgp-run does per experiment: generate predictions,
// summarize their error, run the algorithm and run the distributed checker.
type oneshot struct {
	seed          int64
	n             int
	g, tree       *repro.Graph
	gChk, treeChk *checker
}

func (w *oneshot) period() int { return len(oneshotMix) }
func (w *oneshot) minOps() int { return 120 }

func (w *oneshot) setup(*tracer) (time.Duration, error) {
	start := time.Now()
	w.g = repro.BarabasiAlbert(w.n, 3, repro.NewRand(subSeed(w.seed, streamGraph, 0)))
	w.tree = repro.RandomTree(w.n, repro.NewRand(subSeed(w.seed, streamTree, 0)))
	build := time.Since(start)
	w.gChk = newChecker(w.g).withEdges()
	w.treeChk = newChecker(w.tree)
	return build, nil
}

// oneshotResult is what one oneshot op produced.
type oneshotResult struct {
	preds     any
	summary   string
	out, edge []int
	rounds    int
	msgs      int
	accepted  bool // the library's distributed checker accepted the output
}

func (w *oneshot) op(i int, tr *tracer) outcome {
	m := oneshotMix[i%len(oneshotMix)]
	g, chk := w.g, w.gChk
	if m.problem == "tree" {
		g, chk = w.tree, w.treeChk
	}
	flips, seed := g.N()/100, subSeed(w.seed, streamPreds, i)
	var (
		o   outcome
		r   oneshotResult
		err error
	)
	start := time.Now()
	if tr == nil {
		r, err = oneshotCall(g, m, flips, seed)
	} else {
		r, err = oneshotTraced(tr, g, m, flips, seed)
	}
	o.wall = time.Since(start)
	switch {
	case err != nil:
		o.fail = err.Error()
	case !r.accepted:
		o.fail = "the distributed checker rejected the output"
	default:
		if cerr := chk.check(m.problem, r.out, r.edge); cerr != nil {
			o.fail = cerr.Error()
		}
	}
	o.rounds, o.msgs = r.rounds, r.msgs
	if o.fail == "" {
		o.recourse = chk.changedFromPreds(r.preds, r.out, r.edge)
	}
	o.digest = digestOf(m.problem+"/"+m.alg+" "+r.summary, r.out, r.edge)
	return o
}

func oneshotCall(g *repro.Graph, m mixEntry, flips int, seed int64) (oneshotResult, error) {
	var r oneshotResult
	preds, err := repro.GeneratePreds(m.problem, g, flips, seed)
	if err != nil {
		return r, err
	}
	r.preds = preds
	if r.summary, err = repro.ErrorSummary(m.problem, g, preds); err != nil {
		return r, err
	}
	res, err := repro.RunProblem(g, m.problem, m.alg, preds, repro.Options{})
	if err != nil {
		return r, err
	}
	r.out, r.edge, r.rounds, r.msgs = res.Output, res.EdgeOutput, res.Run.Rounds, res.Run.Messages
	chk, err := repro.CheckSolution(g, m.problem, res, repro.Options{})
	if err != nil {
		return r, err
	}
	r.accepted = chk.AllAccept
	return r, nil
}

// oneshotTraced makes the calls oneshotCall makes, with RunProblem and
// CheckSolution split into the calls they make internally, each in a span.
func oneshotTraced(tr *tracer, g *repro.Graph, m mixEntry, flips int, seed int64) (oneshotResult, error) {
	var r oneshotResult
	t := time.Now()
	preds, err := repro.GeneratePreds(m.problem, g, flips, seed)
	t = tr.span("predict.gen", "", t)
	if err != nil {
		return r, err
	}
	r.preds = preds
	r.summary, err = repro.ErrorSummary(m.problem, g, preds)
	t = tr.span("predict.eta", "", t)
	if err != nil {
		return r, err
	}
	d, a, aux, err := lookup(g, m.problem, m.alg)
	t = tr.span("problem.get", "", t)
	if err != nil {
		return r, err
	}
	factory, encoded, err := build(d, a, aux, preds)
	maxRounds := 0
	if a.MaxRounds != nil {
		maxRounds = a.MaxRounds(g)
	}
	t = tr.span("problem.build", "", t)
	if err != nil {
		return r, err
	}
	raw, err := tr.run(runtime.Config{Graph: g, Factory: factory, Predictions: encoded, MaxRounds: maxRounds}, "")
	t = time.Now()
	if err != nil {
		return r, err
	}
	sol, err := d.Finalize(g, aux, raw.Outputs)
	t = tr.span("verify", "", t)
	if err != nil {
		return r, err
	}
	r.out, r.edge, r.rounds, r.msgs = sol.Node, sol.Edge, raw.Rounds, raw.Messages
	cf, cpreds, err := d.Checker(sol)
	var verdicts *runtime.Result
	if err == nil {
		verdicts, err = runtime.Run(runtime.Config{Graph: g, Factory: cf, Predictions: cpreds})
	}
	tr.span("check", "", t)
	if err != nil {
		return r, err
	}
	r.accepted = true
	for _, v := range verdicts.Outputs {
		if x, ok := v.(int); !ok || x != check.Accept {
			r.accepted = false
		}
	}
	return r, nil
}

// lookup resolves a registered (problem, algorithm) pair and the problem's
// auxiliary instance data, as RunProblem does.
func lookup(g *repro.Graph, name, alg string) (*problem.Descriptor, *problem.Algorithm, any, error) {
	d, err := problem.Get(name)
	if err != nil {
		return nil, nil, nil, err
	}
	var aux any
	if d.NewAux != nil {
		if aux, err = d.NewAux(g); err != nil {
			return nil, nil, nil, err
		}
	}
	a, err := d.Algorithm(alg)
	if err != nil {
		return nil, nil, nil, err
	}
	return d, a, aux, nil
}

// build constructs the engine factory and encodes the predictions.
func build(d *problem.Descriptor, a *problem.Algorithm, aux, preds any) (runtime.Factory, []any, error) {
	factory, err := a.Build(problem.BuildCtx{Aux: aux})
	if err != nil {
		return nil, nil, err
	}
	encoded, err := d.EncodePreds(preds)
	return factory, encoded, err
}

// ---- session-churn -------------------------------------------------------

// churnProblems are the session problems; ops visit them round-robin.
var churnProblems = []string{"mis", "matching", "vcolor"}

// churn applies seeded 8-update batches to three live sessions.
type churn struct {
	seed     int64
	n        int
	sessions []*repro.Session
	specs    []heal.Spec // the sessions' healing machinery, for traced probes
	outs     [][]int     // each session's current output
	rng      *rand.Rand  // update-batch stream
}

func (w *churn) period() int { return len(churnProblems) }
func (w *churn) minOps() int { return 288 }

func (w *churn) setup(tr *tracer) (time.Duration, error) {
	start := time.Now()
	g := repro.BarabasiAlbert(w.n, 3, repro.NewRand(subSeed(w.seed, streamGraph, 0)))
	build := time.Since(start)
	var opts repro.SessionOptions
	if tr != nil {
		opts.Trace, opts.Telemetry = tr.sessionHooks()
	}
	w.sessions, w.specs, w.outs = nil, nil, nil
	for _, p := range churnProblems {
		s, err := repro.NewSession(g, p, opts)
		if err != nil {
			return build, fmt.Errorf("open %s session: %w", p, err)
		}
		d, err := problem.Get(p)
		if err != nil {
			return build, err
		}
		spec, err := heal.SpecFor(d)
		if err != nil {
			return build, err
		}
		w.sessions = append(w.sessions, s)
		w.specs = append(w.specs, spec)
		w.outs = append(w.outs, s.Output())
	}
	w.rng = repro.NewRand(subSeed(w.seed, streamUpdates, 0))
	return build, nil
}

// batch draws op i's update batch on g: four inserts of random absent pairs
// and four deletes of distinct existing edges.
func (w *churn) batch(i int, g *repro.Graph) repro.UpdateBatch {
	n := g.N()
	ups := make([]repro.EdgeUpdate, 0, 8)
	for len(ups) < 4 {
		u, v := w.rng.Intn(n), w.rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			ups = append(ups, repro.EdgeUpdate{Op: repro.EdgeInsert, U: u, V: v})
		}
	}
	seen := map[[2]int]bool{}
	for len(ups) < 8 {
		v := w.rng.Intn(n)
		nbrs := g.Neighbors(v)
		if len(nbrs) == 0 {
			continue
		}
		u := int(nbrs[w.rng.Intn(len(nbrs))])
		key := [2]int{min(u, v), max(u, v)}
		if !seen[key] {
			seen[key] = true
			ups = append(ups, repro.EdgeUpdate{Op: repro.EdgeDelete, U: u, V: v})
		}
	}
	return repro.UpdateBatch{Seq: i + 1, Updates: ups}
}

func (w *churn) op(i int, tr *tracer) outcome {
	k := i % len(w.sessions)
	s := w.sessions[k]
	b := w.batch(i, s.Graph())
	if tr != nil {
		tr.probeStep(s.Graph(), b, w.specs[k], w.outs[k])
	}
	var o outcome
	start := time.Now()
	rep, err := s.Apply(b)
	o.wall = time.Since(start)
	out := s.Output()
	if tr != nil {
		tr.spanAt("dynamic.apply", "", start, start.Add(o.wall))
		tr.afterStep(s.Graph(), rep, w.specs[k], out, o.wall)
	}
	o.rounds, o.msgs = rep.Rounds, rep.Messages
	switch {
	case err != nil:
		o.fail = err.Error()
	case rep.Outcome != "applied":
		o.fail = fmt.Sprintf("batch %d %s: %v", b.Seq, rep.Outcome, rep.Err)
	default:
		if cerr := newChecker(s.Graph()).check(churnProblems[k], out, nil); cerr != nil {
			o.fail = cerr.Error()
		}
	}
	o.recourse = differing(w.outs[k], out)
	o.digest = digestOf(churnProblems[k], out)
	w.outs[k] = out
	return o
}

// ---- chaos-sharded -------------------------------------------------------

// chaosProblems are the recovery problems; ops cycle through them.
var chaosProblems = []string{"mis", "matching", "vcolor"}

// chaos runs self-healing recovery runs on the sharded parallel engine under
// a fresh seeded chaos adversary per op.
type chaos struct {
	seed int64
	n    int
	g    *repro.Graph
	chk  *checker
}

func (w *chaos) period() int { return len(chaosProblems) }
func (w *chaos) minOps() int { return 144 }

func (w *chaos) setup(*tracer) (time.Duration, error) {
	start := time.Now()
	rng := repro.NewRand(subSeed(w.seed, streamGraph, 0))
	w.g = repro.ShuffleIDs(repro.GNP(w.n, 8/float64(w.n-1), rng), 4*w.n, rng)
	build := time.Since(start)
	w.chk = newChecker(w.g)
	return build, nil
}

func (w *chaos) policy(i int) repro.ChaosPolicy {
	return repro.ChaosPolicy{Seed: subSeed(w.seed, streamChaos, i), Drop: .05, Duplicate: .025, Crash: .0125}
}

func (w *chaos) op(i int, tr *tracer) outcome {
	p := chaosProblems[i%len(chaosProblems)]
	flips, seed := w.g.N()/100, subSeed(w.seed, streamPreds, i)
	adv := repro.NewChaos(w.policy(i))
	var (
		o     outcome
		preds any
		r     recovered
		err   error
	)
	start := time.Now()
	if tr == nil {
		preds, r, err = chaosCall(w.g, p, flips, seed, adv)
	} else {
		preds, r, err = chaosTraced(tr, w.g, p, flips, seed, adv)
	}
	o.wall = time.Since(start)
	if err != nil {
		o.fail = err.Error()
		return o
	}
	o.rounds, o.msgs = r.rounds, r.msgs
	if cerr := w.chk.check(p, r.out, nil); cerr != nil {
		o.fail = cerr.Error()
	} else {
		o.recourse = w.chk.changedFromPreds(preds, r.out, nil)
	}
	o.digest = digestOf(p, r.out)
	return o
}

// recovered is what one chaos-sharded op produced: rounds and messages
// summed over the primary and healing runs, and the healed output.
type recovered struct {
	rounds, msgs int
	out          []int
}

func chaosCall(g *repro.Graph, p string, flips int, seed int64, adv repro.Adversary) (any, recovered, error) {
	preds, err := repro.GeneratePreds(p, g, flips, seed)
	if err != nil {
		return nil, recovered{}, err
	}
	rr, err := repro.RunProblemWithRecovery(g, p, preds, repro.Options{Shards: 2, Parallel: true, MaxRounds: 60, Adversary: adv})
	if err != nil {
		return preds, recovered{}, err
	}
	return preds, recovered{rr.TotalRounds(), rr.PrimaryMessages + rr.RecoveryMessages, rr.Output}, nil
}

// chaosTraced makes the calls RunProblemWithRecovery makes, each in a span;
// the healing machinery's Verify and Carve are wrapped to time them and to
// mark where the primary and healing engine runs start and end.
func chaosTraced(tr *tracer, g *repro.Graph, p string, flips int, seed int64, adv repro.Adversary) (any, recovered, error) {
	t := time.Now()
	preds, err := repro.GeneratePreds(p, g, flips, seed)
	t = tr.span("predict.gen", "", t)
	if err != nil {
		return nil, recovered{}, err
	}
	d, a, aux, err := lookup(g, p, "simple")
	var spec heal.Spec
	if err == nil {
		spec, err = heal.SpecFor(d)
	}
	t = tr.span("problem.get", "", t)
	if err != nil {
		return nil, recovered{}, err
	}
	factory, encoded, err := build(d, a, aux, preds)
	t = tr.span("problem.build", "", t)
	if err != nil {
		return nil, recovered{}, err
	}
	cfg := runtime.Config{Graph: g, Factory: factory, Predictions: encoded,
		Parallel: true, Shards: 2, MaxRounds: 60, Adversary: adv}
	probe := tr.recovery(cfg, spec)
	rep, err := heal.RunRecovered(probe.cfg, probe.spec)
	probe.done()
	tr.span("heal.run", "", t)
	if err != nil {
		return preds, recovered{}, err
	}
	return preds, recovered{rep.TotalRounds(), rep.PrimaryMessages + rep.RecoveryMessages, rep.Output}, nil
}
