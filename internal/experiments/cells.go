package experiments

import (
	"fmt"
	"time"

	"bufferqoe/internal/cdn"
	"bufferqoe/internal/engine"
	"bufferqoe/internal/httpvideo"
	"bufferqoe/internal/netem"
	"bufferqoe/internal/qoe"
	"bufferqoe/internal/sim"
	"bufferqoe/internal/stats"
	"bufferqoe/internal/tcp"
	"bufferqoe/internal/telemetry"
	"bufferqoe/internal/testbed"
	"bufferqoe/internal/video"
	"bufferqoe/internal/voip"
	"bufferqoe/internal/web"
)

// Cell value types. Cells return every metric their simulation run
// can cheaply expose, so experiments asking different questions of
// the same configuration share one cached run.

// voipScore is an access VoIP cell: median MOS per direction plus the
// uplink-path characteristics the ablations read.
type voipScore struct {
	Listen, Talk float64
	UpDelayMs    float64
	UpUtilPct    float64
}

// videoScore is a video cell: median SSIM and PSNR across reps.
type videoScore struct{ SSIM, PSNR float64 }

// httpScore is an HTTP-video cell: median MOS and mean bitrate.
type httpScore struct{ MOS, Bitrate float64 }

// playoutScore is a VoIP playout-buffer cell.
type playoutScore struct{ MOS, Z1, LossPct float64 }

// smoothingScore is a single-stream video smoothing cell.
type smoothingScore struct{ SSIM, LossPct float64 }

// bgMetrics is a background-only characterization cell (table1, fig4,
// fig5): no foreground traffic, the workload itself is the
// measurement.
type bgMetrics struct {
	Conc                   float64
	UtilUpPct, UtilDownPct float64
	SdUp, SdDown           float64
	LossUpPct, LossDownPct float64
	DelayUpMs, DelayDownMs float64
	UpBox, DownBox         stats.Boxplot
}

// queueFactory builds a bottleneck queue discipline from its packet
// capacity and the cell's derived seed (RNG-bearing disciplines like
// RED must draw from the cell's stream, not the root seed).
type queueFactory func(capPkts int, seed uint64) netem.Queue

// accessVariant bundles the non-default access-testbed knobs a cell
// may carry together with the canonical tag that distinguishes them
// in the cell cache. The zero value — empty tag — is the paper's
// default configuration; builders must keep tag and knobs in sync, as
// the tag is what the cache sees. Custom link parameters travel
// separately (CellSpec.Link, see linkTag) so the same variant tag can
// apply to any link.
type accessVariant struct {
	tag       string
	bufUp     int // uplink buffer override; 0 = same as downlink
	upQueue   queueFactory
	downQueue queueFactory
	cc        func() tcp.CongestionControl
	tcpCfg    tcp.Config
	jitter    time.Duration
	link      testbed.LinkParams // zero = the paper's DSL link
	// mix, when non-nil, replaces the named Table 1 preset with a
	// custom workload (already canonical and known not to equal any
	// preset — ProbeSpec.normalize folds preset-equal mixes onto the
	// preset path so both spellings share one cache cell).
	mix *testbed.Workload
}

func (v accessVariant) config(buf int, seed uint64) testbed.Config {
	up := buf
	if v.bufUp != 0 {
		up = v.bufUp
	}
	cfg := testbed.Config{
		BufferUp: up, BufferDown: buf, Seed: seed,
		CC: v.cc, TCP: v.tcpCfg, Jitter: v.jitter, Link: v.link,
	}
	if v.upQueue != nil {
		qf := v.upQueue
		cfg.UpQueue = func(capPkts int) netem.Queue { return qf(capPkts, seed) }
	}
	if v.downQueue != nil {
		qf := v.downQueue
		cfg.DownQueue = func(capPkts int) netem.Queue { return qf(capPkts, seed) }
	}
	return cfg
}

// linkTag renders custom link parameters as the canonical
// CellSpec.Link encoding; the paper's preset link encodes as "", so
// probes of the default topology share cells with the experiment
// grids no matter how their LinkParams were spelled. The wifi and
// reorder axes append their own key=value fragments only when active,
// so wired encodings are byte-identical to what they were before those
// axes existed, and the encoding stays injective (every non-default
// knob appears exactly once, defaults filled first).
//
//qoe:encodes testbed.LinkParams testbed.WifiParams
func linkTag(lp testbed.LinkParams) string {
	if lp.IsDefault() {
		return ""
	}
	lp = lp.WithDefaults()
	tag := fmt.Sprintf("up=%g;down=%g;cd=%s;sd=%s",
		lp.UpRate, lp.DownRate, lp.ClientDelay, lp.ServerDelay)
	if lp.Wifi.Stations > 0 {
		tag += fmt.Sprintf(";wifi=%d;retry=%d;agg=%d",
			lp.Wifi.Stations, lp.Wifi.RetryLimit, lp.Wifi.MaxAggFrames)
	}
	if lp.Reorder > 0 {
		tag += fmt.Sprintf(";ro=%g", lp.Reorder)
	}
	return tag
}

// workload bundles the canonical workload axis of a cell: the
// scenario/direction strings the CellSpec carries (cache key and CRN
// seed stimulus) and the resolved session populations the cell
// starts. Resolution happens at task-build time on the caller's
// goroutine — workers only ever see an already-resolved Spec, so an
// unknown workload name can never panic a worker.
type workload struct {
	name string       // CellSpec.Scenario: preset name or canonical mix encoding
	dir  string       // CellSpec.Direction: "" for custom mixes (they encode direction)
	spec testbed.Spec // populations to start; empty = idle (noBG)
}

// accessWL resolves an access workload at build time: a custom mix
// when non-nil, the named Table 1 preset masked by dir otherwise.
// Preset names reach it from exactly two callers: literals in the
// experiment runners (every runner builds its cells in
// TestEveryRunnerBuildsItsCells) and ProbeSpec.task, which validates
// the name first. The panic is therefore reachable only through a
// programming error, never through user input.
func accessWL(scenario string, dir testbed.Direction, mix *testbed.Workload) workload {
	if mix != nil {
		return workload{name: mix.Encode(), spec: mix.Spec(mix.Encode())}
	}
	spec, err := testbed.LookupAccessScenario(scenario, dir)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return workload{name: scenario, dir: dir.String(), spec: spec}
}

// backboneWL is accessWL for the backbone's direction-less workloads;
// its panic, too, is reachable only through a programming error.
func backboneWL(scenario string, mix *testbed.Workload) workload {
	if mix != nil {
		return workload{name: mix.Encode(), spec: mix.Spec(mix.Encode())}
	}
	spec, err := testbed.LookupBackboneScenario(scenario)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return workload{name: scenario, spec: spec}
}

// start launches the resolved populations; idle workloads (noBG and
// empty mixes) leave the testbed untouched, exactly like the historic
// `scenario != "noBG"` guard.
func (w workload) start(tb interface{ StartWorkload(testbed.Spec) }) {
	if w.spec.HasTraffic() {
		tb.StartWorkload(w.spec)
	}
}

// backboneVariant is accessVariant's counterpart for the backbone
// testbed: congestion control, TCP tuning, and the bottleneck queue
// discipline (applied to the congested server->client direction).
type backboneVariant struct {
	tag       string
	downQueue queueFactory
	cc        func() tcp.CongestionControl
	tcpCfg    tcp.Config
	mix       *testbed.Workload // see accessVariant.mix
}

func (v backboneVariant) config(buf int, seed uint64) testbed.Config {
	cfg := testbed.Config{BufferDown: buf, Seed: seed, CC: v.cc, TCP: v.tcpCfg}
	if v.downQueue != nil {
		qf := v.downQueue
		cfg.DownQueue = func(capPkts int) netem.Queue { return qf(capPkts, seed) }
	}
	return cfg
}

// joinTags joins non-empty canonical tag fragments with ";".
func joinTags(tags ...string) string {
	out := ""
	for _, t := range tags {
		if t == "" {
			continue
		}
		if out != "" {
			out += ";"
		}
		out += t
	}
	return out
}

// cellJob pairs a cell task with the grid coordinates its value lands
// in, so a runner builds both in one append and the task/label
// pairing can never drift.
type cellJob struct {
	task     engine.Task
	row, col string
}

func msToDuration(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

// simMetricsOf bundles a finished testbed's simulator and packet-pool
// counters for the telemetry flush. Called only on instrumented runs,
// after the cell's simulation has completed.
func simMetricsOf(se *sim.Engine, nw *netem.Network) telemetry.SimMetrics {
	m := se.Metrics()
	return telemetry.SimMetrics{
		EventsClosure:  m.EventsClosure,
		EventsPooled:   m.EventsPooled,
		EventsArg:      m.EventsArg,
		EventsOwned:    m.EventsOwned,
		TimerRecycles:  m.TimerRecycles,
		PacketRecycles: nw.PacketRecycles(),
		HeapHighWater:  m.HeapHighWater,
	}
}

// finishCell closes a cell's phase clock: remaining time is scored as
// the QoE/aggregation phase, the testbed's simulator counters are
// flushed, and the cell's trace event is emitted. The Enabled guard
// keeps the disabled path free — no spec stringification, no metric
// reads.
func finishCell(pc *telemetry.PhaseClock, sp engine.CellSpec, se *sim.Engine, nw *netem.Network) {
	if !pc.Enabled() {
		return
	}
	pc.Done(sp.String(), simMetricsOf(se, nw))
}

// --- VoIP cells ---------------------------------------------------

// voipAccessTask describes one access VoIP cell: Reps bidirectional
// calls under the named workload at the given buffers.
func voipAccessTask(o Options, scenario string, dir testbed.Direction, buf int, v accessVariant) engine.Task {
	wl := accessWL(scenario, dir, v.mix)
	sp := engine.CellSpec{
		Testbed: "access", Scenario: wl.name, Direction: wl.dir,
		Buffer: buf, BufferUp: v.bufUp, Media: "voip", Variant: v.tag,
		Link: linkTag(v.link), Stop: o.stop().tag(),
		Seed: o.Seed, Warmup: o.Warmup, Reps: o.Reps,
	}
	return engine.Task{Spec: sp, Fn: func(sp engine.CellSpec, seed uint64, scr engine.Scratch) any {
		cs := scratchOf(scr)
		pc := o.Collector.StartCell()
		oc := o
		oc.Seed = seed
		cfg := v.config(buf, seed)
		cfg.Scratch = cs.tb()
		a := testbed.NewAccess(cfg)
		wl.start(a)
		pc.Mark(telemetry.PhaseBuild)
		listen, talk := runVoIPPair(a, oc, cs, &pc)
		now := a.Eng.Now()
		score := voipScore{
			Listen: listen, Talk: talk,
			UpDelayMs: a.UpMon.MeanDelayMs(),
			UpUtilPct: a.UpLinkMonitor().MeanUtilization(now),
		}
		finishCell(&pc, sp, a.Eng, a.Net)
		return score
	}}
}

// voipBackboneTask describes one backbone VoIP cell (unidirectional
// calls, server -> client).
func voipBackboneTask(o Options, scenario string, buf int, v backboneVariant) engine.Task {
	wl := backboneWL(scenario, v.mix)
	sp := engine.CellSpec{
		Testbed: "backbone", Scenario: wl.name, Buffer: buf, Media: "voip",
		Variant: v.tag, Stop: o.stop().tag(),
		Seed: o.Seed, Warmup: o.Warmup, Reps: o.Reps,
	}
	return engine.Task{Spec: sp, Fn: func(sp engine.CellSpec, seed uint64, scr engine.Scratch) any {
		cs := scratchOf(scr)
		pc := o.Collector.StartCell()
		oc := o
		oc.Seed = seed
		cfg := v.config(buf, seed)
		cfg.Scratch = cs.tb()
		b := testbed.NewBackbone(cfg)
		wl.start(b)
		rule := oc.stop()
		mosS := cs.sample(0)
		for i := 0; i < oc.Reps; i++ {
			sample := cs.speech(seed, i)
			b.Eng.Schedule(oc.Warmup+time.Duration(i)*callSpacing, func() {
				voip.Start(b.MediaServer, b.MediaClient, sample, 0,
					func(r voip.Result) {
						mosS.Add(r.MOS)
						if mosS.N() == oc.Reps || rule.done(mosS) {
							b.Eng.Halt()
						}
					})
			})
		}
		pc.Mark(telemetry.PhaseBuild)
		b.Eng.RunFor(cellCap)
		pc.Mark(telemetry.PhaseSim)
		recordReps(oc, mosS.N(), mosS.N() < oc.Reps)
		med := mosS.Median()
		finishCell(&pc, sp, b.Eng, b.Net)
		return med
	}}
}

// playoutTask describes one fixed-vs-adaptive playout-buffer cell
// (access, short-many down, 256-packet buffers).
func playoutTask(o Options, mode string) engine.Task {
	sp := engine.CellSpec{
		Testbed: "access", Scenario: "short-many", Direction: testbed.DirDown.String(),
		Buffer: 256, Media: "voip", Variant: "playout=" + mode,
		Seed: o.Seed, Warmup: o.Warmup, Reps: o.Reps,
	}
	wl := accessWL("short-many", testbed.DirDown, nil)
	return engine.Task{Spec: sp, Fn: func(_ engine.CellSpec, seed uint64, scr engine.Scratch) any {
		cs := scratchOf(scr)
		oc := o
		oc.Seed = seed
		a := testbed.NewAccess(testbed.Config{BufferUp: 256, BufferDown: 256, Seed: seed, Scratch: cs.tb()})
		wl.start(a)
		mosS, z1S, lossS := cs.sample(0), cs.sample(1), cs.sample(2)
		for i := 0; i < oc.Reps; i++ {
			sample := cs.speech(seed, i)
			a.Eng.Schedule(oc.Warmup+time.Duration(i)*callSpacing, func() {
				done := func(r voip.Result) {
					mosS.Add(r.MOS)
					z1S.Add(r.Z1)
					lossS.Add(r.LossPct())
					if mosS.N() == oc.Reps {
						a.Eng.Halt()
					}
				}
				if mode == "adaptive" {
					voip.StartAdaptive(a.MediaServer, a.MediaClient, sample, done)
				} else {
					voip.Start(a.MediaServer, a.MediaClient, sample, 0, done)
				}
			})
		}
		a.Eng.RunFor(cellCap)
		return playoutScore{MOS: mosS.Median(), Z1: z1S.Median(), LossPct: lossS.Median()}
	}}
}

// --- Web cells ----------------------------------------------------

// webAccessTask describes one access web cell: Reps sequential
// fetches (or parallel browser-style fetches over fetchConns
// connections when fetchConns > 0) of the paper's static page.
func webAccessTask(o Options, scenario string, dir testbed.Direction, buf int, v accessVariant, fetchConns int) engine.Task {
	variant := v.tag
	if fetchConns > 0 {
		if variant != "" {
			variant += ";"
		}
		variant += fmt.Sprintf("par=%d", fetchConns)
	}
	wl := accessWL(scenario, dir, v.mix)
	sp := engine.CellSpec{
		Testbed: "access", Scenario: wl.name, Direction: wl.dir,
		Buffer: buf, BufferUp: v.bufUp, Media: "web", Variant: variant,
		Link: linkTag(v.link), Stop: o.stop().tag(),
		Seed: o.Seed, Warmup: o.Warmup, Reps: o.Reps,
	}
	return engine.Task{Spec: sp, Fn: func(sp engine.CellSpec, seed uint64, scr engine.Scratch) any {
		cs := scratchOf(scr)
		pc := o.Collector.StartCell()
		oc := o
		oc.Seed = seed
		cfg := v.config(buf, seed)
		cfg.Scratch = cs.tb()
		a := testbed.NewAccess(cfg)
		wl.start(a)
		mos := qoe.AccessWebModel().MOS
		var plt time.Duration
		if fetchConns > 0 {
			web.RegisterBrowserServer(a.MediaServerTCP, web.BrowserPort)
			pc.Mark(telemetry.PhaseBuild)
			plt = webReps(a.Eng, oc, cs, &pc, mos, func(done func(web.Result)) {
				web.FetchParallel(a.MediaClientTCP, a.MediaServer.Addr(web.BrowserPort),
					fetchConns, 60*time.Second, done)
			})
		} else {
			web.RegisterServer(a.MediaServerTCP, web.Port)
			pc.Mark(telemetry.PhaseBuild)
			plt = webReps(a.Eng, oc, cs, &pc, mos, func(done func(web.Result)) {
				web.Fetch(a.MediaClientTCP, a.MediaServer.Addr(web.Port), 60*time.Second, done)
			})
		}
		finishCell(&pc, sp, a.Eng, a.Net)
		return plt
	}}
}

// webBackboneTask describes one backbone web cell.
func webBackboneTask(o Options, scenario string, buf int, v backboneVariant) engine.Task {
	wl := backboneWL(scenario, v.mix)
	sp := engine.CellSpec{
		Testbed: "backbone", Scenario: wl.name, Buffer: buf, Media: "web",
		Variant: v.tag, Stop: o.stop().tag(),
		Seed: o.Seed, Warmup: o.Warmup, Reps: o.Reps,
	}
	return engine.Task{Spec: sp, Fn: func(sp engine.CellSpec, seed uint64, scr engine.Scratch) any {
		cs := scratchOf(scr)
		pc := o.Collector.StartCell()
		oc := o
		oc.Seed = seed
		cfg := v.config(buf, seed)
		cfg.Scratch = cs.tb()
		b := testbed.NewBackbone(cfg)
		wl.start(b)
		web.RegisterServer(b.MediaServerTCP, web.Port)
		pc.Mark(telemetry.PhaseBuild)
		plt := webReps(b.Eng, oc, cs, &pc, qoe.BackboneWebModel().MOS, func(done func(web.Result)) {
			web.Fetch(b.MediaClientTCP, b.MediaServer.Addr(web.Port), 60*time.Second, done)
		})
		finishCell(&pc, sp, b.Eng, b.Net)
		return plt
	}}
}

// --- Video cells --------------------------------------------------

func videoVariantTag(clip video.Clip, p video.Profile, rec video.Recovery) string {
	tag := "clip=" + clip.Name + ";profile=" + p.Name
	if rec != video.RecoveryNone {
		tag += ";rec=" + rec.String()
	}
	return tag
}

// videoAccessTask describes one access RTP-video cell. The paper's
// grids congest the download direction only (IPTV is downstream);
// the composable probe path may ask for upload or bidirectional
// background congestion instead.
func videoAccessTask(o Options, scenario string, dir testbed.Direction, clip video.Clip, p video.Profile, buf int, v accessVariant) engine.Task {
	wl := accessWL(scenario, dir, v.mix)
	sp := engine.CellSpec{
		Testbed: "access", Scenario: wl.name, Direction: wl.dir,
		Buffer: buf, BufferUp: v.bufUp,
		Media: "video", Variant: joinTags(videoVariantTag(clip, p, video.RecoveryNone), v.tag),
		Link: linkTag(v.link), Stop: o.stop().tag(),
		Seed: o.Seed, Warmup: o.Warmup, Reps: o.Reps, ClipSeconds: o.ClipSeconds,
	}
	return engine.Task{Spec: sp, Fn: func(sp engine.CellSpec, seed uint64, scr engine.Scratch) any {
		cs := scratchOf(scr)
		pc := o.Collector.StartCell()
		oc := o
		oc.Seed = seed
		src := cs.source(clip, p, oc.ClipSeconds)
		cfg := v.config(buf, seed)
		cfg.Scratch = cs.tb()
		a := testbed.NewAccess(cfg)
		wl.start(a)
		pc.Mark(telemetry.PhaseBuild)
		score := videoReps(a.Eng, oc, time.Duration(oc.ClipSeconds)*time.Second, cs, &pc,
			func(done func(video.Result)) {
				video.Start(a.MediaServer, a.MediaClient, src,
					video.Config{Smooth: true, Seed: seed}, done)
			})
		finishCell(&pc, sp, a.Eng, a.Net)
		return score
	}}
}

// videoBackboneTask describes one backbone RTP-video cell, optionally
// with ARQ/FEC recovery.
func videoBackboneTask(o Options, scenario string, clip video.Clip, p video.Profile, rec video.Recovery, buf int, v backboneVariant) engine.Task {
	wl := backboneWL(scenario, v.mix)
	sp := engine.CellSpec{
		Testbed: "backbone", Scenario: wl.name, Buffer: buf,
		Media: "video", Variant: joinTags(videoVariantTag(clip, p, rec), v.tag),
		Stop: o.stop().tag(),
		Seed: o.Seed, Warmup: o.Warmup, Reps: o.Reps, ClipSeconds: o.ClipSeconds,
	}
	return engine.Task{Spec: sp, Fn: func(sp engine.CellSpec, seed uint64, scr engine.Scratch) any {
		cs := scratchOf(scr)
		pc := o.Collector.StartCell()
		oc := o
		oc.Seed = seed
		src := cs.source(clip, p, oc.ClipSeconds)
		cfg := v.config(buf, seed)
		cfg.Scratch = cs.tb()
		b := testbed.NewBackbone(cfg)
		wl.start(b)
		pc.Mark(telemetry.PhaseBuild)
		score := videoReps(b.Eng, oc, time.Duration(oc.ClipSeconds)*time.Second, cs, &pc,
			func(done func(video.Result)) {
				video.Start(b.MediaServer, b.MediaClient, src,
					video.Config{Smooth: true, Seed: seed, Recovery: rec}, done)
			})
		finishCell(&pc, sp, b.Eng, b.Net)
		return score
	}}
}

// smoothingTask describes one sender-smoothing cell: a single SD
// stream on an otherwise idle access link.
func smoothingTask(o Options, buf int, smooth bool) engine.Task {
	mode := "burst"
	if smooth {
		mode = "smooth"
	}
	sp := engine.CellSpec{
		Testbed: "access", Scenario: "noBG", Buffer: buf,
		Media: "video", Variant: "single;mode=" + mode + ";profile=SD",
		Seed: o.Seed, ClipSeconds: o.ClipSeconds,
	}
	return engine.Task{Spec: sp, Fn: func(_ engine.CellSpec, seed uint64, scr engine.Scratch) any {
		cs := scratchOf(scr)
		a := testbed.NewAccess(testbed.Config{BufferUp: buf, BufferDown: buf, Seed: seed, Scratch: cs.tb()})
		src := cs.source(video.ClipC, video.SD, o.ClipSeconds)
		var got video.Result
		video.Start(a.MediaServer, a.MediaClient, src,
			video.Config{Smooth: smooth, Seed: seed},
			func(r video.Result) { got = r; a.Eng.Halt() })
		a.Eng.RunFor(cellCap)
		return smoothingScore{SSIM: got.MeanSSIM, LossPct: got.LossPct()}
	}}
}

// --- HTTP video cells ---------------------------------------------

// httpVideoTask describes one backbone HTTP-video cell; player is
// "progressive", "abr-rate" or "abr-buffer".
func httpVideoTask(o Options, scenario string, buf int, player string) engine.Task {
	sp := engine.CellSpec{
		Testbed: "backbone", Scenario: scenario, Buffer: buf,
		Media: "httpvideo", Variant: "player=" + player,
		Seed: o.Seed, Warmup: o.Warmup, Reps: o.Reps, ClipSeconds: o.ClipSeconds,
	}
	wl := backboneWL(scenario, nil)
	return engine.Task{Spec: sp, Fn: func(_ engine.CellSpec, seed uint64, scr engine.Scratch) any {
		cs := scratchOf(scr)
		oc := o
		oc.Seed = seed
		mediaDur := time.Duration(oc.ClipSeconds*4) * time.Second
		b := testbed.NewBackbone(testbed.Config{BufferDown: buf, Seed: seed, Scratch: cs.tb()})
		wl.start(b)
		mosS, rateS := cs.sample(0), cs.sample(1)
		remaining := oc.Reps
		var next func()
		if player == "progressive" {
			cfg := httpvideo.Config{Bitrate: 4e6, MediaDuration: mediaDur}
			httpvideo.RegisterServer(b.MediaServerTCP, httpvideo.Port, cfg)
			next = func() {
				if remaining == 0 {
					b.Eng.Halt()
					return
				}
				remaining--
				httpvideo.Watch(b.MediaClientTCP, b.MediaServer.Addr(httpvideo.Port), cfg,
					func(r httpvideo.Result) {
						mosS.Add(r.MOS)
						rateS.Add(4e6)
						b.Eng.Schedule(time.Second, next)
					})
			}
		} else {
			cfg := httpvideo.ABRConfig{MediaDuration: mediaDur}
			if player == "abr-buffer" {
				cfg.Algorithm = httpvideo.ABRBuffer
			}
			httpvideo.RegisterABRServer(b.MediaServerTCP, httpvideo.ABRPort, cfg)
			next = func() {
				if remaining == 0 {
					b.Eng.Halt()
					return
				}
				remaining--
				httpvideo.WatchABR(b.MediaClientTCP, b.MediaServer.Addr(httpvideo.ABRPort), cfg,
					func(r httpvideo.ABRResult) {
						mosS.Add(r.MOS)
						rateS.Add(r.MeanBitrate)
						b.Eng.Schedule(time.Second, next)
					})
			}
		}
		b.Eng.Schedule(oc.Warmup, next)
		b.Eng.RunFor(cellCap)
		return httpScore{MOS: mosS.Median(), Bitrate: rateS.Median()}
	}}
}

// --- Background characterization cells ----------------------------

// bgAccessTask describes one background-only access cell: run the
// workload for Warmup+Duration and report the link/queue statistics.
func bgAccessTask(o Options, scenario string, dir testbed.Direction, bufUp, bufDown int) engine.Task {
	v := accessVariant{bufUp: bufUp}
	wl := accessWL(scenario, dir, nil)
	sp := engine.CellSpec{
		Testbed: "access", Scenario: wl.name, Direction: wl.dir,
		Buffer: bufDown, BufferUp: bufUp, Media: "background",
		Seed: o.Seed, Duration: o.Duration, Warmup: o.Warmup,
	}
	return engine.Task{Spec: sp, Fn: func(sp engine.CellSpec, seed uint64, scr engine.Scratch) any {
		cs := scratchOf(scr)
		pc := o.Collector.StartCell()
		cfg := v.config(bufDown, seed)
		cfg.Scratch = cs.tb()
		a := testbed.NewAccess(cfg)
		wl.start(a)
		pc.Mark(telemetry.PhaseBuild)
		a.Eng.RunFor(o.Warmup + o.Duration)
		pc.Mark(telemetry.PhaseSim)
		defer finishCell(&pc, sp, a.Eng, a.Net)
		now := a.Eng.Now()
		m := bgMetrics{
			UtilUpPct:   a.UpLinkMonitor().MeanUtilization(now),
			UtilDownPct: a.DownLinkMonitor().MeanUtilization(now),
			SdUp:        a.UpLinkMonitor().UtilSamples.Std(),
			SdDown:      a.DownLinkMonitor().UtilSamples.Std(),
			LossUpPct:   100 * a.UpMon.LossRate(),
			LossDownPct: 100 * a.DownMon.LossRate(),
			DelayUpMs:   a.UpMon.MeanDelayMs(),
			DelayDownMs: a.DownMon.MeanDelayMs(),
			UpBox:       stats.BoxplotOf(&a.UpLinkMonitor().UtilSamples),
			DownBox:     stats.BoxplotOf(&a.DownLinkMonitor().UtilSamples),
		}
		if a.UpGen != nil {
			m.Conc += a.UpGen.Stats().Concurrent.Mean()
		}
		if a.DownGen != nil {
			m.Conc += a.DownGen.Stats().Concurrent.Mean()
		}
		return m
	}}
}

// bgBackboneTask is bgAccessTask for the backbone testbed; only the
// Down-side metrics are meaningful.
func bgBackboneTask(o Options, scenario string, buf int) engine.Task {
	sp := engine.CellSpec{
		Testbed: "backbone", Scenario: scenario, Buffer: buf, Media: "background",
		Seed: o.Seed, Duration: o.Duration, Warmup: o.Warmup,
	}
	wl := backboneWL(scenario, nil)
	return engine.Task{Spec: sp, Fn: func(sp engine.CellSpec, seed uint64, scr engine.Scratch) any {
		cs := scratchOf(scr)
		pc := o.Collector.StartCell()
		b := testbed.NewBackbone(testbed.Config{BufferDown: buf, Seed: seed, Scratch: cs.tb()})
		wl.start(b)
		pc.Mark(telemetry.PhaseBuild)
		b.Eng.RunFor(o.Warmup + o.Duration)
		pc.Mark(telemetry.PhaseSim)
		defer finishCell(&pc, sp, b.Eng, b.Net)
		now := b.Eng.Now()
		return bgMetrics{
			Conc:        b.Gen.Stats().Concurrent.Mean(),
			UtilDownPct: b.DownLink.Monitor.MeanUtilization(now),
			SdDown:      b.DownLink.Monitor.UtilSamples.Std(),
			LossDownPct: 100 * b.DownMon.LossRate(),
			DelayDownMs: b.DownMon.MeanDelayMs(),
			DownBox:     stats.BoxplotOf(&b.DownLink.Monitor.UtilSamples),
		}
	}}
}

// --- Wild (Section 3) cell ----------------------------------------

// wildTask describes the synthetic CDN population analysis shared by
// the three Figure 1 panels; its only inputs are the seed and the
// population size.
func wildTask(o Options) engine.Task {
	sp := engine.CellSpec{
		Media: "wild", Seed: o.Seed, CDNFlows: o.CDNFlows,
	}
	return engine.Task{Spec: sp, Fn: func(_ engine.CellSpec, seed uint64, _ engine.Scratch) any {
		flows := cdn.Generate(cdn.Config{Flows: o.CDNFlows, Seed: seed})
		return cdn.Analyze(flows, cdn.MinSamplesDefault)
	}}
}
