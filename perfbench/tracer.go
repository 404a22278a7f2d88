package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro"
	"repro/internal/graph"
	"repro/internal/heal"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// span is one timed call into a layer. Parent names the enclosing span
// ("" for a top-level call of the op, "probe" for the calls a traced
// session step makes beside Session.Apply to time its layers).
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// sessionTraceCapacity bounds the event ring one traced session step is
// recorded into.
const sessionTraceCapacity = 1 << 18

// tracer records a traced replay: spans around every layer call plus the
// counters the engine hooks (Options.Stats, Telemetry, the session event
// stream) expose. Spans stay in memory until writeSpans.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	ns    map[string]int64 // summed duration per span name
	topNS int64            // summed duration of top-level spans

	tel       *obs.Telemetry
	phaseBase map[string]float64 // phase seconds recorded before the traced ops
	rec       *obs.Recorder      // session steps' engine event stream
	// truncated counts session steps whose events overflowed rec; their
	// rounds are counted from the surviving window only.
	truncated int

	// Engine rounds, from the Stats hook and the session event stream.
	rounds, emptyRounds int64
	roundNS             int64
	msgs                int64
	activeSum           int64
	nodeRounds          int64

	// Runs observed through the Stats hook: their wall and round time give
	// the engine's per-run setup cost.
	runs                int64
	statsRunNS          int64
	statsRoundNS        int64
	boundary            int64
	lanes               []int64
	curN                int
	runStartObjs        uint64
	lastObjs, lastBytes uint64
	pending             int64 // latest round's allocations, not yet known to be steady
	pendingSet          bool
	steadyRun           int64
	steadyAllocs        int64
	steadyRounds        int64
	setupAllocs         int64
	inRoundObjs         int64
	inRoundBytes        int64
	inRoundMsgs         int64
	applyObjs, applyB   int64
	applyMsgs           int64
	stepStartObjs       uint64
	stepStartBytes      uint64
	stepRoundS          float64 // engine round seconds before the step

	// Session steps.
	steps, noops, attempts, fullReruns int64
	residual, damaged                  int64
	probe                              struct{ patch, verify, carve int64 }
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ns: map[string]int64{}, tel: obs.NewTelemetry(nil)}
}

// span records a span from start to now and returns now.
func (t *tracer) span(name, parent string, start time.Time) time.Time {
	end := time.Now()
	t.spanAt(name, parent, start, end)
	return end
}

func (t *tracer) spanAt(name, parent string, start, end time.Time) {
	d := end.Sub(start).Nanoseconds()
	t.spans = append(t.spans, span{Op: t.op, Name: name, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.ns[name] += d
	if parent == "" {
		t.topNS += d
	}
}

var allocSamples = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}

// readAllocs returns the process's cumulative heap allocation count and
// bytes.
func readAllocs() (objs, bytes uint64) {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64()
}

// beginRun starts the allocation ledger of an engine run on n nodes.
func (t *tracer) beginRun(n int) {
	t.curN = n
	t.runStartObjs, t.lastBytes = readAllocs()
	t.lastObjs = t.runStartObjs
	t.pendingSet = false
	t.steadyRun = 0
}

// onRound is the engine's Stats hook. A round's allocations are those since
// the previous hook call; rounds other than a run's first and last are its
// steady rounds.
func (t *tracer) onRound(rs runtime.RoundStats) {
	objs, bytes := readAllocs()
	dObjs, dBytes := int64(objs-t.lastObjs), int64(bytes-t.lastBytes)
	t.lastObjs, t.lastBytes = objs, bytes
	if rs.Round >= 2 {
		if t.pendingSet {
			t.steadyRun += t.pending
			t.steadyRounds++
		}
		t.pending, t.pendingSet = dObjs, true
		t.inRoundObjs += dObjs
		t.inRoundBytes += dBytes
		t.inRoundMsgs += int64(rs.Messages)
	}
	t.countRound(int64(rs.Active), int64(rs.Messages), rs.Duration.Nanoseconds())
	t.statsRoundNS += rs.Duration.Nanoseconds()
	if len(rs.Shards) == 0 {
		t.lane(0, int64(rs.Messages))
	}
	for s, sh := range rs.Shards {
		t.lane(s, int64(sh.Delivered))
		t.boundary += int64(sh.BoundaryOut)
	}
}

func (t *tracer) countRound(active, msgs, ns int64) {
	t.rounds++
	t.activeSum += active
	t.nodeRounds += int64(t.curN)
	t.msgs += msgs
	t.roundNS += ns
	if msgs == 0 {
		t.emptyRounds++
	}
}

func (t *tracer) lane(s int, delivered int64) {
	for len(t.lanes) <= s {
		t.lanes = append(t.lanes, 0)
	}
	t.lanes[s] += delivered
}

// endRun closes the ledger beginRun opened and records the run's span.
func (t *tracer) endRun(start time.Time, parent string) {
	end := t.span("runtime.run", parent, start)
	objs, _ := readAllocs()
	t.runs++
	t.statsRunNS += end.Sub(start).Nanoseconds()
	t.steadyAllocs += t.steadyRun
	t.setupAllocs += int64(objs-t.runStartObjs) - t.steadyRun
}

// run executes one engine run with the tracer's hooks attached.
func (t *tracer) run(cfg runtime.Config, parent string) (*runtime.Result, error) {
	cfg.Stats, cfg.Telemetry = t.onRound, t.tel
	t.beginRun(cfg.Graph.N())
	start := time.Now()
	res, err := runtime.Run(cfg)
	t.endRun(start, parent)
	return res, err
}

// recoveryProbe is a recovery run's config and healing machinery with the
// tracer's hooks attached.
type recoveryProbe struct {
	cfg  runtime.Config
	spec heal.Spec
	done func() // closes the primary run's ledger if no hook did
}

// recovery instruments a heal.RunRecovered call. The primary run is
// observed through the Stats hook and ends at the first Verify or Carve
// call; the healing run starts when Carve returns and ends at the next
// Verify call.
func (t *tracer) recovery(cfg runtime.Config, spec heal.Spec) recoveryProbe {
	cfg.Stats, cfg.Telemetry = t.onRound, t.tel
	t.beginRun(cfg.Graph.N())
	start := time.Now()
	open := true
	endPrimary := func() {
		if open {
			open = false
			t.endRun(start, "heal.run")
		}
	}
	var healStart time.Time
	verify, carve := spec.Verify, spec.Carve
	spec.Verify = func(g *graph.Graph, out []int) error {
		endPrimary()
		now := time.Now()
		if !healStart.IsZero() {
			t.spanAt("runtime.heal", "heal.run", healStart, now)
			healStart = time.Time{}
		}
		err := verify(g, out)
		t.span("verify", "heal.run", now)
		return err
	}
	spec.Carve = func(g *graph.Graph, out []int) (partial, residual []int) {
		endPrimary()
		now := time.Now()
		partial, residual = carve(g, out)
		healStart = t.span("heal.carve", "heal.run", now)
		return partial, residual
	}
	return recoveryProbe{cfg: cfg, spec: spec, done: endPrimary}
}

// sessionHooks returns the event recorder and telemetry a traced session
// is opened with.
func (t *tracer) sessionHooks() (*repro.TraceRecorder, *repro.Telemetry) {
	if t.rec == nil {
		t.rec = obs.NewRecorder(sessionTraceCapacity)
	}
	return t.rec, t.tel
}

// probeStep times, beside the session, the layer calls Session.Apply is
// about to make on batch b: the graph patch, the stale output's
// verification and, when that fails, the carve.
func (t *tracer) probeStep(g0 *graph.Graph, b repro.UpdateBatch, spec heal.Spec, out0 []int) {
	t.probe.patch, t.probe.verify, t.probe.carve = 0, 0, 0
	var p graph.Patch
	for _, u := range b.Updates {
		if u.Op == repro.EdgeInsert {
			p.Insert = append(p.Insert, [2]int{u.U, u.V})
		} else {
			p.Delete = append(p.Delete, [2]int{u.U, u.V})
		}
	}
	s := time.Now()
	g1, _, err := g0.ApplyPatch(p)
	e := t.span("probe.patch", "probe", s)
	t.probe.patch = e.Sub(s).Nanoseconds()
	if err == nil {
		stale := spec.Verify(g1, out0)
		s = t.span("probe.verify", "probe", e)
		t.probe.verify = s.Sub(e).Nanoseconds()
		if stale != nil {
			spec.Carve(g1, out0)
			t.probe.carve = t.span("probe.carve", "probe", s).Sub(s).Nanoseconds()
		}
	}
	t.rec.Reset()
	t.stepRoundS = t.phaseSeconds("round")
	t.stepStartObjs, t.stepStartBytes = readAllocs()
}

// afterStep reads the engine events and round telemetry of the step
// Session.Apply just made and splits its wall time: patch, verification and
// carve estimated from the probes, engine rounds from the telemetry, and the
// session's own work (the remainder, which also holds the engine's per-run
// setup) as dynamic.self.
func (t *tracer) afterStep(g *graph.Graph, rep repro.SessionStep, spec heal.Spec, out []int, apply time.Duration) {
	objs, bytes := readAllocs()
	t.applyObjs += int64(objs - t.stepStartObjs)
	t.applyB += int64(bytes - t.stepStartBytes)
	t.applyMsgs += int64(rep.Messages)
	if t.rec.Dropped() > 0 {
		t.truncated++
	}
	engineNS := int64((t.phaseSeconds("round") - t.stepRoundS) * 1e9)
	t.curN = g.N()
	var active int64
	for _, ev := range t.rec.Events() {
		switch ev.Type {
		case obs.EvRoundStart:
			active = ev.Value
		case obs.EvRoundEnd:
			t.countRound(active, ev.Value, ev.DurNS)
		}
	}
	verifyNS := t.probe.verify
	var carveNS int64
	if rep.Attempts > 0 {
		s := time.Now()
		spec.Verify(g, out)
		verifyNS += int64(rep.Attempts) * t.span("probe.verify", "probe", s).Sub(s).Nanoseconds()
		// One base carve per healed step, one more per widening rung.
		carveNS = t.probe.carve * int64(1+rep.Widened)
	} else {
		t.noops++
	}
	t.ns["graph.patch"] += t.probe.patch
	t.ns["verify"] += verifyNS
	t.ns["heal.carve"] += carveNS
	t.ns["dynamic.self"] += apply.Nanoseconds() - t.probe.patch - verifyNS - carveNS - engineNS
	t.steps++
	t.attempts += int64(rep.Attempts)
	if rep.FullRerun {
		t.fullReruns++
	}
	t.residual += int64(rep.Residual)
	t.damaged += int64(rep.Damaged)
}

// phaseSeconds sums the telemetry round histograms of one engine phase
// across shard counts.
func (t *tracer) phaseSeconds(phase string) float64 {
	prefix := "dgp_round_seconds{phase=" + fmt.Sprintf("%q", phase)
	sum := 0.0
	for _, h := range t.tel.Registry().Snapshot().Histograms {
		if strings.HasPrefix(h.Name, prefix) {
			sum += h.Sum
		}
	}
	return sum
}

// writeSpans writes the recorded spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goStats samples the Go runtime's GC and CPU counters.
type goStats struct {
	gcCycles uint32
	gcPause  time.Duration
	cpu      time.Duration
}

func sampleGo() goStats {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return goStats{gcCycles: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs), cpu: cpuTime()}
}
