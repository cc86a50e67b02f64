package experiments

import (
	"context"
	"fmt"
	"time"

	"bufferqoe/internal/engine"
	"bufferqoe/internal/qoe"
	"bufferqoe/internal/sim"
	"bufferqoe/internal/sizing"
	"bufferqoe/internal/telemetry"
	"bufferqoe/internal/testbed"
	"bufferqoe/internal/video"
	"bufferqoe/internal/voip"
	"bufferqoe/internal/web"
)

// callSpacing is the gap between successive measurement call starts
// within one testbed run.
const callSpacing = 16 * time.Second

// cellCap bounds a single cell's simulated time as a safety net; the
// engine halts as soon as all repetitions complete.
const cellCap = 30 * time.Minute

// runVoIPPair schedules Reps simultaneous bidirectional calls on an
// already-configured access testbed and returns the median MOS of
// each direction. The two directions of one call share the
// conversational delay impairment, as in the paper's Section 7.2.
// pc marks the end of the cell's simulation phase; a disabled clock
// no-ops. With adaptive replication enabled, the loop halts as soon
// as both directions' MOS confidence intervals are tight enough —
// later pre-scheduled calls simply never start, so the completed
// repetitions are exactly the exhaustive run's first n.
func runVoIPPair(a *testbed.Access, o Options, cs *CellScratch, pc *telemetry.PhaseClock) (listen, talk float64) {
	rule := o.stop()
	listenS, talkS := cs.sample(0), cs.sample(1)
	for i := 0; i < o.Reps; i++ {
		listenClip, talkClip := cs.speech(o.Seed, 2*i), cs.speech(o.Seed, 2*i+1)
		a.Eng.Schedule(o.Warmup+time.Duration(i)*callSpacing, func() {
			voip.StartPair(a.MediaClient, a.MediaServer, listenClip, talkClip, 0,
				func(pr voip.PairResult) {
					listenS.Add(pr.Listen.MOS)
					talkS.Add(pr.Talk.MOS)
					if listenS.N() == o.Reps || (rule.done(listenS) && rule.done(talkS)) {
						a.Eng.Halt()
					}
				})
		})
	}
	a.Eng.RunFor(cellCap)
	pc.Mark(telemetry.PhaseSim)
	recordReps(o, listenS.N(), listenS.N() < o.Reps)
	return listenS.Median(), talkS.Median()
}

// fig7 regenerates the Figure 7 access VoIP heatmaps: variant "a" is
// download congestion, "b" upload congestion. Variant "c" is the
// combined up+down scenario the paper describes in §7.2 ("plot not
// shown": results resemble upload-only, with the listen direction
// slightly worse from the added downlink traffic).
func fig7(ctx context.Context, s *Session, o Options, variant string) (*Result, error) {
	dir := testbed.DirDown
	switch variant {
	case "b":
		dir = testbed.DirUp
	case "c":
		dir = testbed.DirBidir
	}
	scenarios := []string{"noBG", "long-few", "long-many", "short-few", "short-many"}
	var rows []string
	for _, half := range []string{"user-listens", "user-talks"} {
		for _, s := range scenarios {
			rows = append(rows, half+"/"+s)
		}
	}
	g := NewGrid(fmt.Sprintf("Figure 7%s: VoIP access median MOS, %s congestion", variant, dir),
		rows, accessBufferCols())
	var jobs []cellJob
	for _, buf := range sizing.AccessBufferSizes {
		col := fmt.Sprintf("%d", buf)
		for _, s := range scenarios {
			jobs = append(jobs, cellJob{voipAccessTask(o, s, dir, buf, accessVariant{}), s, col})
		}
	}
	s.runCells(ctx, jobs, func(row, col string, v any) {
		p := v.(voipScore)
		g.Set("user-listens/"+row, col, Cell{Value: p.Listen, Class: string(qoe.VoIPSatisfaction(p.Listen))})
		g.Set("user-talks/"+row, col, Cell{Value: p.Talk, Class: string(qoe.VoIPSatisfaction(p.Talk))})
	})
	return &Result{ID: "fig7" + variant, Grids: []*Grid{g}}, nil
}

// fig8 regenerates the Figure 8 backbone VoIP heatmap (unidirectional
// calls, server -> client, as in the paper).
func fig8(ctx context.Context, s *Session, o Options) (*Result, error) {
	scenarios := testbed.BackboneScenarioNames
	g := NewGrid("Figure 8: VoIP backbone median MOS", scenarios, backboneBufferCols())
	var jobs []cellJob
	for _, buf := range sizing.BackboneBufferSizes {
		col := fmt.Sprintf("%d", buf)
		for _, s := range scenarios {
			jobs = append(jobs, cellJob{voipBackboneTask(o, s, buf, backboneVariant{}), s, col})
		}
	}
	s.runCells(ctx, jobs, func(row, col string, v any) {
		m := v.(float64)
		g.Set(row, col, Cell{Value: m, Class: string(qoe.VoIPSatisfaction(m))})
	})
	return &Result{ID: "fig8", Grids: []*Grid{g}}, nil
}

// videoReps streams the clip sequentially Reps times; start is
// invoked per repetition with the completion callback. It returns the
// median SSIM and PSNR across repetitions. The adaptive stopping rule
// watches a shadow MOS sample (SSIM mapped through the paper's
// SSIM-to-MOS curve) so the CI threshold means the same thing — MOS
// points — across all media types.
func videoReps(se *sim.Engine, o Options, clipDur time.Duration, cs *CellScratch, pc *telemetry.PhaseClock, start func(done func(video.Result))) videoScore {
	rule := o.stop()
	ssims, psnrs, mosS := cs.sample(0), cs.sample(1), cs.sample(2)
	spacing := clipDur + video.StartupDelay + 5*time.Second
	for i := 0; i < o.Reps; i++ {
		se.Schedule(o.Warmup+time.Duration(i)*spacing, func() {
			start(func(r video.Result) {
				ssims.Add(r.MeanSSIM)
				psnrs.Add(r.MeanPSNR)
				mosS.Add(qoe.SSIMToMOS(r.MeanSSIM))
				if ssims.N() == o.Reps || rule.done(mosS) {
					se.Halt()
				}
			})
		})
	}
	se.RunFor(cellCap)
	pc.Mark(telemetry.PhaseSim)
	recordReps(o, ssims.N(), ssims.N() < o.Reps)
	return videoScore{SSIM: ssims.Median(), PSNR: psnrs.Median()}
}

// fig9 regenerates the Figure 9 video heatmaps: variant "a" is the
// access testbed (download congestion only: IPTV is downstream),
// "b" the backbone.
func fig9(ctx context.Context, s *Session, o Options, variant string) (*Result, error) {
	profiles := []video.Profile{video.SD, video.HD}
	clip := video.ClipC // the clip the paper displays

	var scenarios []string
	var cols []string
	var bufs []int
	if variant == "a" {
		scenarios = []string{"noBG", "long-few", "long-many", "short-few", "short-many"}
		cols, bufs = accessBufferCols(), sizing.AccessBufferSizes
	} else {
		scenarios = testbed.BackboneScenarioNames
		cols, bufs = backboneBufferCols(), sizing.BackboneBufferSizes
	}
	var rows []string
	for _, p := range profiles {
		for _, s := range scenarios {
			rows = append(rows, p.Name+"/"+s)
		}
	}
	g := NewGrid(fmt.Sprintf("Figure 9%s: median SSIM (video C)", variant), rows, cols)

	var jobs []cellJob
	for bi, buf := range bufs {
		col := cols[bi]
		for _, s := range scenarios {
			for _, p := range profiles {
				// Build only the variant's own task: workload names
				// resolve at build time, and the backbone names are not
				// access names.
				var task engine.Task
				if variant == "a" {
					task = videoAccessTask(o, s, testbed.DirDown, clip, p, buf, accessVariant{})
				} else {
					task = videoBackboneTask(o, s, clip, p, video.RecoveryNone, buf, backboneVariant{})
				}
				jobs = append(jobs, cellJob{task, p.Name + "/" + s, col})
			}
		}
	}
	s.runCells(ctx, jobs, func(row, col string, v any) {
		ssim := v.(videoScore).SSIM
		g.Set(row, col, Cell{
			Value: ssim,
			Class: string(qoe.Rate(qoe.SSIMToMOS(ssim))),
		})
	})
	return &Result{ID: "fig9" + variant, Grids: []*Grid{g}}, nil
}

// webReps fetches the page sequentially Reps times and returns the
// median PLT. mos maps a PLT onto the testbed's WebQoE model so the
// adaptive stopping rule operates in MOS points, like every other
// media type.
func webReps(se *sim.Engine, o Options, cs *CellScratch, pc *telemetry.PhaseClock, mos func(time.Duration) float64, fetch func(done func(web.Result))) time.Duration {
	rule := o.stop()
	plts, mosS := cs.sample(0), cs.sample(1)
	remaining := o.Reps
	var next func()
	next = func() {
		if remaining == 0 {
			se.Halt()
			return
		}
		remaining--
		fetch(func(r web.Result) {
			plts.Add(r.PLT.Seconds())
			mosS.Add(mos(r.PLT))
			if rule.done(mosS) {
				se.Halt()
				return
			}
			se.Schedule(time.Second, next)
		})
	}
	se.Schedule(o.Warmup, next)
	se.RunFor(cellCap)
	pc.Mark(telemetry.PhaseSim)
	recordReps(o, plts.N(), plts.N() < o.Reps)
	return time.Duration(plts.Median() * float64(time.Second))
}

// fig10 regenerates the Figure 10 access WebQoE heatmaps: variant "a"
// is download congestion, "b" upload congestion. Variant "c" is the
// combined workload of §9.2 ("not shown": dominated by the upload
// side, with somewhat shorter PLTs than upload-only).
func fig10(ctx context.Context, s *Session, o Options, variant string) (*Result, error) {
	dir := testbed.DirDown
	switch variant {
	case "b":
		dir = testbed.DirUp
	case "c":
		dir = testbed.DirBidir
	}
	model := qoe.AccessWebModel()
	scenarios := []string{"noBG", "long-few", "long-many", "short-few", "short-many"}
	g := NewGrid(fmt.Sprintf("Figure 10%s: access median PLT (s) and WebQoE, %s congestion", variant, dir),
		scenarios, accessBufferCols())
	var jobs []cellJob
	for _, buf := range sizing.AccessBufferSizes {
		col := fmt.Sprintf("%d", buf)
		for _, s := range scenarios {
			jobs = append(jobs, cellJob{webAccessTask(o, s, dir, buf, accessVariant{}, 0), s, col})
		}
	}
	s.runCells(ctx, jobs, func(row, col string, v any) {
		plt := v.(time.Duration)
		mos := model.MOS(plt)
		g.Set(row, col, Cell{
			Value: plt.Seconds(),
			Text:  fmt.Sprintf("%.2fs/MOS %.1f", plt.Seconds(), mos),
			Class: string(qoe.Rate(mos)),
		})
	})
	return &Result{ID: "fig10" + variant, Grids: []*Grid{g}}, nil
}

// fig11 regenerates the Figure 11 backbone WebQoE heatmap.
func fig11(ctx context.Context, s *Session, o Options) (*Result, error) {
	model := qoe.BackboneWebModel()
	scenarios := testbed.BackboneScenarioNames
	g := NewGrid("Figure 11: backbone median PLT (s) and WebQoE", scenarios, backboneBufferCols())
	var jobs []cellJob
	for _, buf := range sizing.BackboneBufferSizes {
		col := fmt.Sprintf("%d", buf)
		for _, s := range scenarios {
			jobs = append(jobs, cellJob{webBackboneTask(o, s, buf, backboneVariant{}), s, col})
		}
	}
	s.runCells(ctx, jobs, func(row, col string, v any) {
		plt := v.(time.Duration)
		mos := model.MOS(plt)
		g.Set(row, col, Cell{
			Value: plt.Seconds(),
			Text:  fmt.Sprintf("%.2fs/MOS %.1f", plt.Seconds(), mos),
			Class: string(qoe.Rate(mos)),
		})
	})
	return &Result{ID: "fig11", Grids: []*Grid{g}}, nil
}
