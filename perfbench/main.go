// Command perfbench is the repository benchmark. It runs one seeded
// workload as a closed loop with a single caller (the next op starts when
// the previous one returns), checks every op's output with its own
// independent checker, and prints the end-to-end metrics as the last line
// of standard output. With -trace 1 it instead runs the same op stream twice
// in lockstep, once with every layer call in a span, and prints the
// per-layer metrics.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench -workload oneshot-ba -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	goruntime "runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/perf"
)

const (
	// defaultSeed is the seed the benchmark is tuned on; heldOutSeed is
	// kept for confirming a claimed gain on a seed not used while the
	// change was written.
	defaultSeed = 1
	heldOutSeed = 7919
	// setupReps is how many times a timed run sets its workload up;
	// setup_s is the median.
	setupReps = 5
	// tracedShare is the share of -seconds a traced run's lockstep passes
	// take; the rest covers its two set-ups.
	tracedShare = 0.9
	// warmUpBase offsets the warm-up ops' indices past every measured op.
	warmUpBase = 1 << 20
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	commit   string
	spans    string
	scale    scale
}

func run(args []string, stdout io.Writer) error {
	return runAt(fullScale, args, stdout)
}

// runAt runs the benchmark with workloads of the given size.
func runAt(sc scale, args []string, stdout io.Writer) error {
	o := options{scale: sc}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name: oneshot-ba, session-churn or chaos-sharded")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 30, "measuring time in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 replays the op stream traced and reports per-layer metrics")
	fs.StringVar(&o.commit, "commit", "unknown", "source commit, for the provenance record")
	fs.StringVar(&o.spans, "spans", "", "file the traced run writes its spans to (JSON lines)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	env := perf.CaptureEnvironment()
	if env.GOMAXPROCS > env.NumCPU {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available; refusing to measure", env.GOMAXPROCS, env.NumCPU)
	}
	w, err := newWorkload(o.workload, o.seed, o.scale)
	if err != nil {
		return err
	}
	if err := printLine(stdout, map[string]any{"provenance": map[string]any{
		"commit": o.commit, "go_version": env.GoVersion, "goos": env.GOOS, "goarch": env.GOARCH,
		"nproc": env.NumCPU, "gomaxprocs": env.GOMAXPROCS, "cpu_model": env.CPUModel,
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"default_seed": defaultSeed, "held_out_seed": heldOutSeed,
	}}); err != nil {
		return err
	}
	var res *result
	if o.trace == 1 {
		res, err = tracedRun(o, w, stdout)
	} else {
		res, err = timedRun(o, w, stdout)
	}
	if err != nil {
		return err
	}
	return printLine(stdout, res)
}

func printLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOps runs untraced ops 0, 1, ... until at least minCount have run and
// budget has elapsed, ending on a whole number of the workload's periods.
// count > 0 runs exactly count ops instead.
func runOps(w workload, budget time.Duration, minCount, count int) []outcome {
	var outs []outcome
	start := time.Now()
	for i := 0; ; i++ {
		if count > 0 && i == count {
			break
		}
		if count == 0 && i >= minCount && i%w.period() == 0 && time.Since(start) >= budget {
			break
		}
		outs = append(outs, w.op(i, nil))
	}
	return outs
}

// warmUp runs one untimed period of ops, so lazy set-up and heap growth
// are done before measuring, and then collects garbage. The ops are checked
// like measured ones; a failure aborts the run.
func warmUp(w workload) error {
	for i := warmUpBase; i < warmUpBase+w.period(); i++ {
		if oc := w.op(i, nil); oc.fail != "" {
			return fmt.Errorf("warm-up op %d: %s", i-warmUpBase, oc.fail)
		}
	}
	goruntime.GC()
	return nil
}

// timedRun sets the workload up setupReps times and runs the untraced op
// stream for the measuring time.
func timedRun(o options, w workload, stdout io.Writer) (*result, error) {
	setups := make([]float64, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		start := time.Now()
		if _, err := w.setup(nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if err := warmUp(w); err != nil {
		return nil, err
	}
	minOps := w.minOps()
	outs := runOps(w, seconds(o.seconds), minOps, 0)

	var failed int
	var wall time.Duration
	lat := make([]float64, len(outs))
	var failures []string
	for i, oc := range outs {
		wall += oc.wall
		lat[i] = float64(oc.wall.Nanoseconds()) / 1e6
		if oc.fail != "" {
			failed++
			if len(failures) < 5 {
				failures = append(failures, fmt.Sprintf("op %d: %s", i, oc.fail))
			}
		}
	}
	var rounds, msgs, recourse int
	for _, oc := range outs[:minOps] {
		rounds += oc.rounds
		msgs += oc.msgs
		recourse += oc.recourse
	}
	attempted := len(outs)
	if err := printLine(stdout, map[string]any{"info": map[string]any{
		"samples": attempted, "count_ops": minOps, "fail_frac": float64(failed) / float64(attempted),
		"setup_s": setups, "measured_s": wall.Seconds(), "failures": failures,
	}}); err != nil {
		return nil, err
	}
	return &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"ops_per_s":       {float64(attempted-failed) / wall.Seconds(), "1/s"},
			"op_ms.p50":       {quantile(lat, 0.50), "ms"},
			"op_ms.p90":       {quantile(lat, 0.90), "ms"},
			"setup_s":         {quantile(setups, 0.5), "s"},
			"verified_frac":   {float64(attempted-failed) / float64(attempted), "frac"},
			"max_rss_mb":      {maxRSSMB(), "MB"},
			"rounds_per_op":   {float64(rounds) / float64(minOps), "count"},
			"msgs_per_op":     {float64(msgs) / float64(minOps), "count"},
			"recourse_per_op": {float64(recourse) / float64(minOps), "count"},
		},
	}, nil
}

// tracedRun sets up two instances of the workload, the second with the
// tracer's hooks, and runs the op stream on both in lockstep for the
// measuring time: op i untraced, then op i traced, the order alternating
// with i so that neither side gains from running second. Every traced op
// must reproduce its untraced twin's rounds, messages and output digest
// exactly, so the per-layer metrics describe the same program the
// end-to-end metrics do.
func tracedRun(o options, w workload, stdout io.Writer) (*result, error) {
	if _, err := w.setup(nil); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	tw, err := newWorkload(o.workload, o.seed, o.scale)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	graphBuild, err := tw.setup(tr)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	for _, x := range []workload{w, tw} {
		if err := warmUp(x); err != nil {
			return nil, err
		}
	}
	tr.phaseBase = map[string]float64{}
	for _, p := range phases {
		tr.phaseBase[p] = tr.phaseSeconds(p)
	}
	var (
		plain, traced []outcome
		gcCycles      uint32
		gcPause, cpu  time.Duration
	)
	untraced := func(i int) {
		before := sampleGo()
		plain = append(plain, w.op(i, nil))
		after := sampleGo()
		gcCycles += after.gcCycles - before.gcCycles
		gcPause += after.gcPause - before.gcPause
		cpu += after.cpu - before.cpu
	}
	start := time.Now()
	for i := 0; i == 0 || i%w.period() != 0 || time.Since(start) < seconds(o.seconds*tracedShare); i++ {
		tr.op = i
		if i%2 == 0 {
			untraced(i)
		}
		traced = append(traced, tw.op(i, tr))
		if i%2 == 1 {
			untraced(i)
		}
	}
	if err := parity(o.workload, plain, traced); err != nil {
		return nil, err
	}
	failed := 0
	var plainWall, tracedWall time.Duration
	for i := range plain {
		if plain[i].fail != "" {
			failed++
		}
		plainWall += plain[i].wall
		tracedWall += traced[i].wall
	}
	if o.spans != "" {
		if err := tr.writeSpans(o.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	if err := printLine(stdout, map[string]any{"info": map[string]any{
		"ops": len(plain), "spans": len(tr.spans), "truncated_steps": tr.truncated, "untraced_s": plainWall.Seconds(), "traced_s": tracedWall.Seconds(),
	}}); err != nil {
		return nil, err
	}
	m := layerMetrics(tr, len(traced), tracedWall)
	m["graph.build_s"] = metric{graphBuild.Seconds(), "s"}
	m["obs.trace_overhead_frac"] = metric{tracedWall.Seconds()/plainWall.Seconds() - 1, "frac"}
	ops := float64(len(plain))
	m["go.gc_cycles_per_op"] = metric{float64(gcCycles) / ops, "count"}
	m["go.gc_pause_ms_per_op"] = metric{float64(gcPause.Nanoseconds()) / 1e6 / ops, "ms"}
	m["go.cpu_s_per_op"] = metric{cpu.Seconds() / ops, "s"}
	return &result{Correct: failed == 0, Attempted: len(plain), Failed: failed, Metrics: m}, nil
}

// parity is the guard that keeps the per-layer metrics about the same
// program as the end-to-end ones: each traced op must reproduce its
// untraced twin's rounds, messages, output digest and success exactly.
func parity(workload string, plain, traced []outcome) error {
	for i := range plain {
		p, t := plain[i], traced[i]
		if p.rounds != t.rounds || p.msgs != t.msgs || p.digest != t.digest || (p.fail == "") != (t.fail == "") {
			return fmt.Errorf("parity: traced op %d of %s differs from the untraced run "+
				"(rounds %d vs %d, messages %d vs %d, digest %x vs %x, failure %q vs %q)",
				i, workload, t.rounds, p.rounds, t.msgs, p.msgs, t.digest, p.digest, t.fail, p.fail)
		}
	}
	return nil
}

var phases = []string{"send", "route", "receive"}

// layerMetrics derives the per-layer metrics from a traced pass of ops ops
// whose timed regions total wall.
func layerMetrics(tr *tracer, ops int, wall time.Duration) map[string]metric {
	n := float64(ops)
	msPerOp := func(names ...string) metric {
		var ns int64
		for _, name := range names {
			ns += tr.ns[name]
		}
		return metric{float64(ns) / 1e6 / n, "ms"}
	}
	m := map[string]metric{
		"graph.patch_ms":                  msPerOp("graph.patch"),
		"predict.gen_ms":                  msPerOp("predict.gen"),
		"predict.eta_ms":                  msPerOp("predict.eta"),
		"problem.build_ms":                msPerOp("problem.build"),
		"verify.ms":                       msPerOp("verify"),
		"heal.carve_ms":                   msPerOp("heal.carve"),
		"check.ms":                        msPerOp("check"),
		"dynamic.self_ms":                 msPerOp("dynamic.self"),
		"runtime.setup_ms":                {float64(tr.statsRunNS-tr.statsRoundNS) / 1e6 / n, "ms"},
		"runtime.msgs_per_s":              {ratio(float64(tr.msgs), float64(tr.roundNS)/1e9), "1/s"},
		"runtime.active_frac":             {ratio(float64(tr.activeSum), float64(tr.nodeRounds)), "frac"},
		"runtime.empty_rounds_per_op":     {float64(tr.emptyRounds) / n, "count"},
		"runtime.steady_allocs_per_round": {ratio(float64(tr.steadyAllocs), float64(tr.steadyRounds)), "count"},
		"runtime.setup_allocs":            {ratio(float64(tr.setupAllocs), float64(tr.runs)), "count"},
		"shard.boundary_frac":             {ratio(float64(tr.boundary), float64(tr.msgs)), "frac"},
		"shard.lane_imbalance":            {laneImbalance(tr.lanes), "ratio"},
		"heal.residual_per_damaged":       {ratio(float64(tr.residual), float64(tr.damaged)), "ratio"},
		"dynamic.noop_frac":               {ratio(float64(tr.noops), float64(tr.steps)), "frac"},
		"dynamic.attempts_per_step":       {ratio(float64(tr.attempts), float64(tr.steps)), "count"},
		"dynamic.full_rerun_frac":         {ratio(float64(tr.fullReruns), float64(tr.steps)), "frac"},
		"op.unattributed_frac":            {1 - float64(tr.topNS)/float64(wall.Nanoseconds()), "frac"},
	}
	for _, p := range phases {
		m["runtime."+p+"_ms"] = metric{(tr.phaseSeconds(p) - tr.phaseBase[p]) * 1e3 / n, "ms"}
	}
	// Mallocs inside engine rounds per delivered message, from the Stats
	// hook; sessions expose no round hook, so there it is Session.Apply's
	// mallocs per delivered message.
	objs, bytes, msgs := tr.inRoundObjs, tr.inRoundBytes, tr.inRoundMsgs
	if tr.steps > 0 {
		objs, bytes, msgs = tr.applyObjs, tr.applyB, tr.applyMsgs
	}
	m["core.allocs_per_msg"] = metric{ratio(float64(objs), float64(msgs)), "count"}
	m["core.alloc_bytes_per_msg"] = metric{ratio(float64(bytes), float64(msgs)), "B"}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// laneImbalance is the busiest lane's deliveries over the mean lane's.
func laneImbalance(lanes []int64) float64 {
	if len(lanes) == 0 {
		return 1
	}
	var max, sum int64
	for _, l := range lanes {
		sum += l
		if l > max {
			max = l
		}
	}
	return ratio(float64(max)*float64(len(lanes)), float64(sum))
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// quantile is the q-quantile of xs by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// maxRSSMB is the process's peak resident memory in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
