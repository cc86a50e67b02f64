package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"time"

	"bufferqoe"
	"bufferqoe/internal/tcp"
	"bufferqoe/internal/testbed"
)

// sweepWorkers is the session worker-pool size of the sweep workloads.
const sweepWorkers = 2

// satisfactionFloors are the MOS boundaries of the paper's VoIP
// satisfaction categories (Figure 6a); each is asked as the threshold
// of a MinBufferMeetingMOS recommendation.
var satisfactionFloors = []float64{2.6, 3.1, 3.6, 4.0, 4.3}

// readGroup is how many recommendSpecs there are per probe set of a
// scenario: max-aggregate-mos and one per satisfaction floor.
const readGroup = 1 + 5

// recommendSpecs are the questions a user asks once a part's grid is
// swept, all answered from the grid: for every scenario and for all
// probes together and each probe alone, the buffer of highest aggregate
// MOS and the smallest buffer meeting each satisfaction floor.
func recommendSpecs(p sweepPart) []bufferqoe.RecommendSpec {
	sets := [][]bufferqoe.Probe{p.sweep.Probes}
	if len(p.sweep.Probes) > 1 {
		for _, pr := range p.sweep.Probes {
			sets = append(sets, []bufferqoe.Probe{pr})
		}
	}
	var out []bufferqoe.RecommendSpec
	for _, sc := range p.sweep.Scenarios {
		for _, probes := range sets {
			base := bufferqoe.RecommendSpec{Scenario: sc, Probes: probes, Buffers: p.sweep.Buffers}
			best := base
			best.Target = bufferqoe.MaxAggregateMOS
			out = append(out, best)
			for _, floor := range satisfactionFloors {
				least := base
				least.Target, least.Threshold = bufferqoe.MinBufferMeetingMOS, floor
				out = append(out, least)
			}
		}
	}
	return out
}

// sweepPart is one facade Sweep call of a workload with its options
// (Seed is filled from the run's seed).
type sweepPart struct {
	sweep bufferqoe.Sweep
	opts  bufferqoe.Options
}

// sweepWorkload is a fixed grid of one or more sweeps.
type sweepWorkload struct {
	name  string
	parts []sweepPart
}

func (w sweepWorkload) cells() int {
	n := 0
	for _, p := range w.parts {
		n += len(p.sweep.Scenarios) * len(p.sweep.Buffers) * len(p.sweep.Probes)
	}
	return n
}

func (w sweepWorkload) withSeed(seed uint64) sweepWorkload {
	out := sweepWorkload{name: w.name}
	for _, p := range w.parts {
		p.opts.Seed = seed
		out.parts = append(out.parts, p)
	}
	return out
}

var (
	voipProbe  = bufferqoe.Probe{Media: bufferqoe.VoIP}
	webProbe   = bufferqoe.Probe{Media: bufferqoe.Web}
	videoProbe = bufferqoe.Probe{Media: bufferqoe.Video, Profile: "SD"}
)

// accessMedia: QoE scoring dominates (speech and SSIM), the packet
// path is light.
var accessMedia = sweepWorkload{
	name: "access-media",
	parts: []sweepPart{{
		sweep: bufferqoe.Sweep{
			Scenarios: []bufferqoe.Scenario{
				{Network: bufferqoe.Access, Workload: "noBG"},
				{Network: bufferqoe.Access, Workload: "short-few", Direction: bufferqoe.Down},
				{Network: bufferqoe.Access, Workload: "short-few", Direction: bufferqoe.Up},
			},
			Buffers: []int{8, 16, 32, 64, 128, 256},
			Probes:  []bufferqoe.Probe{voipProbe, videoProbe},
		},
		opts: bufferqoe.Options{Reps: 4, Duration: 30 * time.Second, Warmup: 5 * time.Second, ClipSeconds: 4},
	}},
}

var wifi8 = bufferqoe.WifiLink(8)

// bulkFlows: the event queue and packet path dominate: a many-flow
// backbone and an 802.11 last hop under BBR.
var bulkFlows = sweepWorkload{
	name: "bulk-flows",
	parts: []sweepPart{
		{
			sweep: bufferqoe.Sweep{
				Scenarios: []bufferqoe.Scenario{
					{Network: bufferqoe.Backbone, Workload: "short-high"},
					{Network: bufferqoe.Backbone, Workload: "long"},
				},
				Buffers: []int{8, 28, 749, 7490},
				Probes:  []bufferqoe.Probe{voipProbe, webProbe},
			},
			opts: bufferqoe.Options{Reps: 1, Duration: 5 * time.Second, Warmup: 2 * time.Second},
		},
		{
			sweep: bufferqoe.Sweep{
				Scenarios: []bufferqoe.Scenario{
					{Network: bufferqoe.Access, Link: &wifi8, CC: bufferqoe.BBR, Workload: "long-many", Direction: bufferqoe.Bidir},
				},
				Buffers: []int{8, 32, 128},
				// No web probe here: a page load over the contended
				// hop takes a seed-dependent simulated time (sim
				// events varied with a coefficient of variation of
				// 0.29 over eight seeds, VoIP 0.04), which made the
				// workload's cost a function of its seed.
				Probes: []bufferqoe.Probe{voipProbe},
			},
			opts: bufferqoe.Options{Reps: 2, Duration: 6 * time.Second, Warmup: 2 * time.Second},
		},
	},
}

// replayCells lists the background of every (scenario, buffer) of the
// workload for the testbed/sim replay.
func (w sweepWorkload) replayCells() ([]replayCell, error) {
	var out []replayCell
	for _, p := range w.parts {
		for _, sc := range p.sweep.Scenarios {
			for _, b := range p.sweep.Buffers {
				c, err := replayOf(sc, b, p.opts)
				if err != nil {
					return nil, err
				}
				out = append(out, c)
			}
		}
	}
	return out, nil
}

// replayOf maps a facade scenario onto the testbed configuration its
// cells build, copying what the facade's Link.internal copies. Scenario
// fields the replay does not model are refused, so a workload edit
// cannot make the replay describe a different network from the
// measured cells.
func replayOf(sc bufferqoe.Scenario, buffer int, o bufferqoe.Options) (replayCell, error) {
	switch {
	case sc.Mix != nil, sc.AQM != bufferqoe.DropTail, sc.Jitter != 0, sc.BufferUp != 0:
		return replayCell{}, fmt.Errorf("replay of %s: Mix, AQM, Jitter and BufferUp are not modelled", sc.Label())
	case sc.CC != bufferqoe.DefaultCC && sc.CC != bufferqoe.BBR:
		return replayCell{}, fmt.Errorf("replay of %s: congestion control %q is not modelled", sc.Label(), sc.CC)
	}
	c := replayCell{
		backbone: sc.Network == bufferqoe.Backbone,
		scenario: sc.Workload,
		buffer:   buffer,
		run:      o.Warmup + o.Duration,
	}
	switch sc.Direction {
	case bufferqoe.Up:
		c.dir = testbed.DirUp
	case bufferqoe.Bidir:
		c.dir = testbed.DirBidir
	default:
		c.dir = testbed.DirDown
	}
	if l := sc.Link; l != nil {
		c.link = testbed.LinkParams{
			UpRate: l.UpRate, DownRate: l.DownRate,
			ClientDelay: l.ClientDelay, ServerDelay: l.ServerDelay,
			Wifi: testbed.WifiParams{
				Stations:     l.Wifi.Stations,
				RetryLimit:   l.Wifi.RetryLimit,
				MaxAggFrames: l.Wifi.MaxAggFrames,
			},
			Reorder: l.Reorder,
		}
	}
	if sc.CC == bufferqoe.BBR {
		c.cc = tcp.NewBBRLite
	}
	return c, nil
}

// iteration is one set-up plus the requests a user of the workload
// makes: per part, a cold facade Sweep (a write: every cell freshly
// simulated), then its recommendSpecs (the reads: answered from the
// session cache, as after a sweep a user asks which buffer to use).
type iteration struct {
	setup  time.Duration
	writes []time.Duration // each cold Sweep call
	reads  []time.Duration // each Recommend call
	digest string
	cells  []bufferqoe.SweepCell
	recs   []*bufferqoe.Recommendation
	// scoring calls behind the cold pass's cells (see scoringWork)
	speechCalls, ssimFrames int
}

// cold is the iteration's time spent sweeping.
func (it iteration) cold() time.Duration {
	var t time.Duration
	for _, d := range it.writes {
		t += d
	}
	return t
}

// observe carries the traced run's instruments; nil fields are off.
type observe struct {
	col *bufferqoe.Collector
	tr  *tracer
	req int // request id of the workload's spans
	// parent span of the facade calls
	parent int
	// trace receives the collector's per-cell JSON lines
	trace io.Writer
	// speed is probed before each timed unit (untraced runs)
	speed *speedMeter
}

// runIteration creates a fresh session, warms its per-worker content
// caches, then sweeps and asks about every part of the workload.
func runIteration(w sweepWorkload, obs observe, res *result) (iteration, error) {
	var it iteration
	// Start every iteration from a collected heap, so the previous
	// iteration's session does not inflate this one's GC work or the
	// peak RSS.
	obs.speed.pause()
	t0 := time.Now()
	s := bufferqoe.NewSession()
	s.SetParallelism(sweepWorkers)
	for _, p := range w.parts {
		if _, err := s.Sweep(warmupSweep(p), warmupOptions(p.opts)); err != nil {
			return it, fmt.Errorf("warm-up: %w", err)
		}
	}
	s.ResetCache()
	if obs.col != nil {
		s.SetCollector(obs.col)
		obs.col.TraceTo(obs.trace)
	}
	t1 := time.Now()
	it.setup = t1.Sub(t0)
	obs.tr.add("facade.setup", obs.parent, obs.req, t0, t1)

	var simulated uint64
	for _, p := range w.parts {
		cells, err := sweepAndAsk(s, p, obs, &it, res)
		if err != nil {
			return it, err
		}
		it.cells = append(it.cells, cells...)
		simulated += uint64(len(cells))
	}
	if obs.col != nil {
		obs.col.TraceTo(nil)
	}
	if len(it.cells) != w.cells() {
		res.fail("cold pass returned %d cells, want %d", len(it.cells), w.cells())
	}
	it.digest = digestCells(it.cells)
	if st := s.Stats(); st.Misses != simulated {
		res.fail("session simulated %d cells, want %d", st.Misses, simulated)
	}
	return it, nil
}

// sweepAndAsk makes the cold Sweep of a part and then asks the part's
// recommendSpecs, which must come from the cache and agree with the
// swept cells.
func sweepAndAsk(s *bufferqoe.Session, p sweepPart, obs observe, it *iteration, res *result) ([]bufferqoe.SweepCell, error) {
	before := s.Stats()
	obs.speed.pause()
	ts := time.Now()
	g, err := s.Sweep(p.sweep, p.opts)
	te := time.Now()
	obs.tr.add("facade.sweep", obs.parent, obs.req, ts, te)
	if err != nil {
		return nil, fmt.Errorf("cold sweep: %w", err)
	}
	it.writes = append(it.writes, te.Sub(ts))
	res.Attempted += len(g.Cells)
	grid := map[cellKey]bufferqoe.SweepCell{}
	for _, c := range g.Cells {
		if msg := checkCell(c); msg != "" {
			res.fail("%s", msg)
		}
		grid[cellKey{c.Scenario, c.Probe, c.Buffer}] = c
	}
	sp, fr := scoringWork(g.Cells, p.opts.Reps, p.opts.ClipSeconds)
	it.speechCalls += sp
	it.ssimFrames += fr
	swept := s.Stats()
	if swept.Misses-before.Misses != uint64(len(g.Cells)) || swept.Hits != before.Hits {
		res.fail("cold sweep simulated %d of its %d cells with %d cache hits, want all and 0",
			swept.Misses-before.Misses, len(g.Cells), swept.Hits-before.Hits)
	}

	// The reads come in groups of the questions about one probe set of
	// one scenario, each after a pause, so that they sample the machine
	// at many moments of the run, and on a collected heap, not during
	// the collection of the sweep's garbage.
	for i, spec := range recommendSpecs(p) {
		if i%readGroup == 0 {
			obs.speed.pause()
		}
		tr := time.Now()
		rec, err := s.Recommend(context.Background(), spec, p.opts)
		te := time.Now()
		obs.tr.add("facade.recommend", obs.parent, obs.req, tr, te)
		if err != nil {
			return nil, fmt.Errorf("recommend: %w", err)
		}
		it.reads = append(it.reads, te.Sub(tr))
		it.recs = append(it.recs, rec)
		res.Attempted++
		for _, c := range rec.Cells {
			if c != grid[cellKey{c.Scenario, c.Probe, c.Buffer}] {
				res.fail("recommendation %s for %s: %s@%d differs from the swept cell", spec.Target, spec.Scenario.Label(), c.Probe, c.Buffer)
			}
		}
		if len(rec.Cells) != len(spec.Probes) {
			res.fail("recommendation %s for %s has %d cells, want %d", spec.Target, spec.Scenario.Label(), len(rec.Cells), len(spec.Probes))
		}
	}
	if asked := s.Stats(); asked.Misses != swept.Misses {
		res.fail("recommendations simulated %d cells; they must come from the cache", asked.Misses-swept.Misses)
	}
	return g.Cells, nil
}

// warmupSweep is a noBG grid on the part's network and link with the
// part's probes: cheap cells that make each worker synthesize the
// speech library and render the video source the measured cells use.
func warmupSweep(p sweepPart) bufferqoe.Sweep {
	sc := p.sweep.Scenarios[0]
	sc.Workload, sc.Direction, sc.Mix = "noBG", "", nil
	return bufferqoe.Sweep{
		Scenarios: []bufferqoe.Scenario{sc},
		Buffers:   warmupBuffers,
		Probes:    p.sweep.Probes,
	}
}

func warmupOptions(o bufferqoe.Options) bufferqoe.Options {
	o.Reps, o.Duration, o.Warmup = 1, time.Second, 100*time.Millisecond
	return o
}

// runSweepWorkload is the untraced run: iterations until the run's
// length is used (at least two; another starts while at least half of
// it fits), then the end-to-end metrics.
func runSweepWorkload(w sweepWorkload, cfg config, out io.Writer) (*result, error) {
	w = w.withSeed(cfg.seed)
	res := newResult()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	speed := newSpeedMeter()
	var its []iteration
	for {
		it, err := runIteration(w, observe{speed: speed}, res)
		if err != nil {
			return nil, err
		}
		its = append(its, it)
		el := time.Since(start)
		if len(its) >= 2 && el+el/time.Duration(2*len(its)) > budget {
			break
		}
	}
	checkIterations(res, its)
	fmt.Fprintf(out, "# digest %s (%d cells, %d iterations)\n", its[0].digest, w.cells(), len(its))
	fmt.Fprintf(out, "# requests %d (reads %d, writes %d)\n",
		len(its)*(len(its[0].reads)+len(its[0].writes)), len(its)*len(its[0].reads), len(its)*len(its[0].writes))
	checkDigest(res, w.name, cfg.seed, its[0].digest)
	sweepMetrics(res, w, its)
	speed.toReference(res, out)
	return res, nil
}

// checkIterations requires every iteration to reproduce the first one's
// cells and recommendations exactly.
func checkIterations(res *result, its []iteration) {
	for i, it := range its {
		if it.digest != its[0].digest {
			res.fail("iteration %d digest %s differs from iteration 0 (%s)", i, it.digest, its[0].digest)
		}
		for j, rec := range it.recs {
			if !sameRecommendation(rec, its[0].recs[j]) {
				res.fail("iteration %d recommendation %d differs from iteration 0", i, j)
			}
		}
	}
}

// sweepMetrics derives the end-to-end metrics from the iterations. A
// request is one facade call: a cold Sweep (a write) or a Recommend (a
// read). Set-up, the rates, the write time and the read p99 are
// medians over iterations, so a disturbance of the machine that slows
// one iteration does not move them; a write's time is the iteration's
// mean over its parts, whose sweeps differ in size. The p50 and p99 of
// all requests are taken over every request of the run, since one
// iteration holds too few writes for a p99. The peak RSS is the run's.
func sweepMetrics(res *result, w sweepWorkload, its []iteration) {
	var setups, cellRates, reqRates, all, reads, writes, meanWrites, readP99s []float64
	for _, it := range its {
		var busy time.Duration
		for _, d := range it.writes {
			writes = append(writes, ms(d))
			busy += d
		}
		var itReads []float64
		for _, d := range it.reads {
			itReads = append(itReads, ms(d))
			busy += d
		}
		reads = append(reads, itReads...)
		readP99s = append(readP99s, quantile(itReads, 0.99))
		meanWrites = append(meanWrites, ms(it.cold())/float64(len(it.writes)))
		setups = append(setups, it.setup.Seconds())
		cellRates = append(cellRates, float64(w.cells())/it.cold().Seconds())
		reqRates = append(reqRates, float64(len(it.writes)+len(it.reads))/busy.Seconds())
	}
	all = append(append(all, writes...), reads...)
	res.set("setup_s", median(setups), "s")
	res.set("cells_per_s", median(cellRates), "cells/s")
	res.set("req_per_s", median(reqRates), "req/s")
	res.set("req_p50_ms", median(all), "ms")
	res.set("req_p99_ms", quantile(all, 0.99), "ms")
	res.set("read_p99_ms", median(readP99s), "ms")
	res.set("write_p50_ms", median(meanWrites), "ms")
	rss, ok := peakRSSMiB("self")
	if !ok {
		res.fail("cannot read VmHWM of the benchmark process")
	}
	res.set("peak_rss_mb", rss, "MiB")
}

// runSweepTraced is the traced run: an untraced reference iteration,
// then a traced one with the collector, the cell trace, spans and a
// CPU profile, then the layer replays and unit-cost measurements.
func runSweepTraced(w sweepWorkload, cfg config, out io.Writer) (*result, error) {
	w = w.withSeed(cfg.seed)
	res := newResult()
	ref, err := runIteration(w, observe{}, res)
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	col := bufferqoe.NewCollector()
	colStart := time.Now()
	var cellTrace bytes.Buffer
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	root := tr.begin("workload", 0, 1)
	it, err := runIteration(w, observe{col: col, tr: tr, req: 1, parent: root, trace: &cellTrace}, res)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	tr.end(root)
	checkIterations(res, []iteration{ref, it})
	checkDigest(res, w.name, cfg.seed, it.digest)

	m := col.Metrics()
	buildS, simS := addCellSpans(tr, &cellTrace, colStart, res)
	engineMetrics(res, m, it.cold())
	res.set("experiments.build_s", buildS, "s")
	res.set("experiments.sim_s", simS, "s")
	res.set("trace_overhead_frac", it.cold().Seconds()/ref.cold().Seconds()-1, "fraction")

	rroot := tr.begin("replay", 0, 2)
	cells, err := w.replayCells()
	if err != nil {
		return nil, err
	}
	rs, err := replay(cells, cfg.seed, tr, rroot, 2)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	tr.end(rroot)
	replayMetrics(res, rs)

	sc, err := measureScoring(cfg.seed, w.parts[0].opts.ClipSeconds, tr, 0, 3)
	if err != nil {
		return nil, err
	}
	scoringMetrics(res, sc, it.speechCalls, it.ssimFrames, m.WorkerBusySeconds)

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	stt, err := measureStore(dir, 200, tr, 0, 4)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	res.set("store.get_us_p50", stt.getP50, "us")
	res.set("store.get_us_p99", stt.getP99, "us")
	res.set("store.put_us_p50", stt.putP50, "us")
	res.set("store.hits", float64(m.StoreHits), "count")
	res.set("store.writes", float64(m.StoreWrites), "count")
	res.set("store.load_p95_s", m.StoreLoadP95Seconds, "s")
	var recFrac, readUS []float64
	for i, rec := range it.recs {
		recFrac = append(recFrac, float64(rec.CellsEvaluated)/float64(rec.GridCells))
		readUS = append(readUS, us(it.reads[i]))
	}
	res.set("recommend.cells_evaluated_frac", mean(recFrac), "fraction")
	res.set("facade.read_us_p50", median(readUS), "us")
	// No HTTP in a sweep workload.
	res.set("serve.http_us_p50", 0, "us")

	shares, err := cpuShares(prof.Bytes(), cfg.outDir)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	setShares(res, shares)

	checkCounts(res, w.name, cfg.seed, pin{
		SimEvents: m.SimEvents, Packets: rs.packets,
		Drops: rs.drops, Collisions: rs.collisions,
	})
	fmt.Fprintf(out, "# pin %s\n", mustJSON(pin{
		Digest: it.digest, SimEvents: m.SimEvents, Packets: rs.packets,
		Drops: rs.drops, Collisions: rs.collisions,
	}))
	if err := finishSpans(tr, cfg, w.name, out); err != nil {
		return nil, err
	}
	return res, nil
}

// scoringWork counts the QoE scoring calls behind cells the run
// simulated: per VoIP repetition one speech score for the listening
// direction and one more when the cell reports a talk score, per video
// repetition one SSIM and one PSNR per frame of the clip at 25 frames
// per second. The cells are the program's; the calls per repetition
// are nominal, so a change that cuts the scoring calls a repetition
// makes leaves these counts unchanged (the unit costs show it).
func scoringWork(cells []bufferqoe.SweepCell, reps, clipSeconds int) (speechCalls, ssimFrames int) {
	for _, c := range cells {
		switch {
		case c.Metric == "mos" && c.TalkMOS > 0:
			speechCalls += 2 * reps
		case c.Metric == "mos":
			speechCalls += reps
		case c.Metric == "ssim":
			ssimFrames += reps * clipSeconds * 25
		}
	}
	return speechCalls, ssimFrames
}

// addCellSpans turns the collector's per-cell trace events into spans
// (cell -> build, sim, score) under the facade call that was running
// when each cell finished, and returns the summed build and sim phase
// seconds.
func addCellSpans(tr *tracer, trace *bytes.Buffer, colStart time.Time, res *result) (buildS, simS float64) {
	var sweeps []span
	for _, s := range tr.spans {
		if s.Name == "facade.sweep" {
			sweeps = append(sweeps, s)
		}
	}
	dec := json.NewDecoder(trace)
	for {
		var ev struct {
			T       float64 `json:"t"`
			BuildMS float64 `json:"build_ms"`
			SimMS   float64 `json:"sim_ms"`
			ScoreMS float64 `json:"score_ms"`
		}
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			res.fail("cell trace: %v", err)
			break
		}
		buildS += ev.BuildMS / 1e3
		simS += ev.SimMS / 1e3
		end := colStart.Add(time.Duration(ev.T * float64(time.Second)))
		d := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
		start := end.Add(-d(ev.BuildMS + ev.SimMS + ev.ScoreMS))
		parent, req := 0, 0
		endS := end.Sub(tr.t0).Seconds()
		for _, s := range sweeps {
			if endS >= s.Start && endS <= s.End+0.001 {
				parent, req = s.ID, s.Req
			}
		}
		id := tr.add("cell", parent, req, start, end)
		b := start.Add(d(ev.BuildMS))
		sm := b.Add(d(ev.SimMS))
		tr.add("experiments.build", id, req, start, b)
		tr.add("experiments.sim", id, req, b, sm)
		tr.add("experiments.score", id, req, sm, end)
	}
	return buildS, simS
}

// engineMetrics reports the engine and simulator counters of a traced
// cold pass of the given wall time on sweepWorkers workers.
func engineMetrics(res *result, m bufferqoe.Metrics, wall time.Duration) {
	res.set("engine.cells_simulated", float64(m.CellsSimulated), "count")
	res.set("engine.cache_hits", float64(m.CacheHits), "count")
	res.set("engine.store_hits", float64(m.StoreHits), "count")
	res.set("engine.worker_busy_s", m.WorkerBusySeconds, "s")
	res.set("engine.worker_idle_frac", 1-m.WorkerBusySeconds/(sweepWorkers*wall.Seconds()), "fraction")
	res.set("engine.cell_wall_p50_s", m.CellWallP50Seconds, "s")
	res.set("engine.cell_wall_p95_s", m.CellWallP95Seconds, "s")
	res.set("experiments.reps_total", m.RepsTotal, "count")
	res.set("sim.events", float64(m.SimEvents), "count")
	res.set("sim.events_closure", float64(m.SimEventsByTier["closure"]), "count")
	res.set("sim.heap_high_water", float64(m.HeapHighWater), "count")
}

// replayMetrics reports the testbed, simulator, bottleneck and MAC
// measurements of the replay, plus the calibration loop.
func replayMetrics(res *result, rs replayStats) {
	res.set("testbed.build_us", rs.buildNS/float64(rs.cells)/1e3, "us")
	res.set("sim.ns_per_event", rs.runNS/float64(rs.events), "ns")
	res.set("calib.ns_per_event", calibNSPerEvent(), "ns")
	res.set("netem.packets", float64(rs.packets), "count")
	res.set("netem.bottleneck_drops", float64(rs.drops), "count")
	res.set("mac.tx_frames", float64(rs.txFrames), "count")
	res.set("mac.collisions", float64(rs.collisions), "count")
	res.set("mac.retry_drops", float64(rs.retryDrops), "count")
	fpt := 0.0
	if rs.txAggs > 0 {
		fpt = float64(rs.txFrames) / float64(rs.txAggs)
	}
	res.set("mac.frames_per_txop", fpt, "frames")
}

// scoringMetrics reports the QoE/media/video unit costs and the share
// of worker busy time they explain.
func scoringMetrics(res *result, sc scoring, speechCalls, ssimFrames int, busyS float64) {
	res.set("qoe.speech_calls", float64(speechCalls), "count")
	res.set("qoe.speech_ms_per_call", sc.speechMS, "ms")
	res.set("qoe.ssim_frames", float64(ssimFrames), "count")
	res.set("qoe.ssim_us_per_frame", sc.ssimUS, "us")
	res.set("qoe.psnr_us_per_frame", sc.psnrUS, "us")
	share := 0.0
	if busyS > 0 {
		share = (float64(speechCalls)*sc.speechMS/1e3 + float64(ssimFrames)*(sc.ssimUS+sc.psnrUS)/1e6) / busyS
	}
	res.set("qoe.score_share", share, "fraction")
	res.set("media.library_ms", sc.libraryMS, "ms")
	res.set("video.source_ms", sc.sourceMS, "ms")
}

func setShares(res *result, shares map[string]float64) {
	for _, pkg := range sharePackages {
		res.set("cpu_share."+pkg, shares[pkg], "fraction")
	}
}

// finishSpans computes self times, writes the spans file and prints
// self time per span name.
func finishSpans(tr *tracer, cfg config, workload string, out io.Writer) error {
	spans := tr.finish()
	p, err := writeSpans(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, cfg.seed), spans)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# spans %d written to %s\n", len(spans), p)
	self := selfByName(spans)
	for _, n := range sortedKeys(self) {
		fmt.Fprintf(out, "# self %-24s %10.4f s\n", n, self[n])
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
