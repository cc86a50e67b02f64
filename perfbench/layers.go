package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"bufferqoe/internal/mac"
	"bufferqoe/internal/media"
	"bufferqoe/internal/qoe"
	"bufferqoe/internal/sim"
	"bufferqoe/internal/store"
	"bufferqoe/internal/tcp"
	"bufferqoe/internal/testbed"
	"bufferqoe/internal/video"
)

// replayCell is the background part of one cell shape, rebuilt by the
// benchmark directly on the testbed layer so that the testbed build,
// the simulator run and the bottleneck counters can be timed and read
// on their own.
type replayCell struct {
	backbone bool
	scenario string
	dir      testbed.Direction
	buffer   int
	link     testbed.LinkParams
	cc       func() tcp.CongestionControl
	run      time.Duration // simulated time: warmup + duration
}

// replayStats sums what the replays measured.
type replayStats struct {
	cells      int
	buildNS    float64 // wall time of the timed NewAccess/NewBackbone calls
	runNS      float64 // wall time of the RunFor calls
	events     uint64
	packets    uint64
	drops      uint64
	txFrames   uint64
	txAggs     uint64
	collisions uint64
	retryDrops uint64
}

// replay rebuilds and runs every cell's background on a warm scratch
// per testbed shape. Spans go under parent in request req.
func replay(cells []replayCell, seed uint64, tr *tracer, parent, req int) (replayStats, error) {
	var st replayStats
	scratch := map[string]*testbed.Scratch{}
	for _, c := range cells {
		shape := "access"
		if c.backbone {
			shape = "backbone"
		} else if c.link.Wifi.Stations > 0 {
			shape = "wifi"
		}
		scr := scratch[shape]
		cfg := testbed.Config{BufferUp: c.buffer, BufferDown: c.buffer, Seed: seed, CC: c.cc, Link: c.link}
		if scr == nil {
			// Warm the carcass: the timed build below is the in-place
			// reset every cell after a worker's first pays.
			scr = &testbed.Scratch{}
			scratch[shape] = scr
			cfg.Scratch = scr
			if c.backbone {
				testbed.NewBackbone(cfg)
			} else {
				testbed.NewAccess(cfg)
			}
		}
		cfg.Scratch = scr
		scr.Reset()
		var eng *sim.Engine
		var start func()
		var done func()
		t0 := time.Now()
		if c.backbone {
			b := testbed.NewBackbone(cfg)
			t1 := time.Now()
			spec, err := testbed.LookupBackboneScenario(c.scenario)
			if err != nil {
				return st, err
			}
			eng = b.Eng
			start = func() {
				if spec.HasTraffic() {
					b.StartWorkload(spec)
				}
			}
			done = func() {
				st.packets += b.Net.PacketRecycles()
				st.drops += b.DownMon.Dropped
			}
			st.buildNS += float64(t1.Sub(t0))
			tr.add("testbed.build", parent, req, t0, t1)
		} else {
			a := testbed.NewAccess(cfg)
			t1 := time.Now()
			spec, err := testbed.LookupAccessScenario(c.scenario, c.dir)
			if err != nil {
				return st, err
			}
			eng = a.Eng
			start = func() {
				if spec.HasTraffic() {
					a.StartWorkload(spec)
				}
			}
			done = func() {
				st.packets += a.Net.PacketRecycles()
				st.drops += a.UpMon.Dropped + a.DownMon.Dropped
				if a.UpWifi != nil {
					for _, w := range []*mac.WifiLink{a.UpWifi, a.DownWifi} {
						st.txFrames += w.TxFrames
						st.txAggs += w.TxAggregates
						st.collisions += w.Collisions
						st.retryDrops += w.RetryDrops
					}
				}
			}
			st.buildNS += float64(t1.Sub(t0))
			tr.add("testbed.build", parent, req, t0, t1)
		}
		start()
		t2 := time.Now()
		eng.RunFor(c.run)
		t3 := time.Now()
		tr.add("sim.run", parent, req, t2, t3)
		st.runNS += float64(t3.Sub(t2))
		m := eng.Metrics()
		st.events += m.EventsClosure + m.EventsPooled + m.EventsArg + m.EventsOwned
		done()
		st.cells++
	}
	return st, nil
}

// tick is a pooled handler for the calibration loop.
type tick struct{ n int }

func (h *tick) Fire(sim.Time) { h.n++ }

// calibNSPerEvent times a handler schedule/fire loop on a fresh
// engine: the machine's speed for the simulator's atom during this
// run, so sim.ns_per_event can be read relative to it.
func calibNSPerEvent() float64 {
	const n = 2_000_000
	eng := sim.New()
	h := &tick{}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		eng.ScheduleHandler(time.Microsecond, h)
		if i%64 == 63 {
			eng.RunFor(time.Millisecond)
		}
	}
	eng.RunFor(time.Millisecond)
	el := time.Since(t0)
	if h.n != n {
		return 0
	}
	return float64(el) / n
}

// scoring holds the QoE layer's unit costs measured on library clips.
type scoring struct {
	libraryMS float64 // media.Library synthesis
	sourceMS  float64 // video.NewSource rendering
	speechMS  float64 // one qoe.SpeechQuality call (median)
	ssimUS    float64 // one qoe.SSIM frame (median)
	psnrUS    float64 // one qoe.PSNR frame (median)
}

// measureScoring times media synthesis, video rendering and the QoE
// metrics on the content the cells score: library clips against
// copies with 20 ms dropouts, and rendered frames against copies with
// one slice band frozen.
func measureScoring(seed uint64, clipSeconds int, tr *tracer, parent, req int) (scoring, error) {
	var sc scoring
	t0 := time.Now()
	lib := media.Library(seed)
	sc.libraryMS = ms(time.Since(t0))
	tr.add("media.library", parent, req, t0, time.Now())

	var speech []float64
	for i := 0; i < 6; i++ {
		ref := lib[i].PCM
		deg := append([]float64(nil), ref...)
		gap := media.SampleRate / 50 // 20 ms
		for j := 0; j+gap < len(deg); j += 10 * gap {
			clear(deg[j : j+gap])
		}
		t := time.Now()
		z := qoe.SpeechQuality(ref, deg, media.SampleRate)
		speech = append(speech, ms(time.Since(t)))
		tr.add("qoe.score", parent, req, t, time.Now())
		if !(z > 0) {
			return sc, fmt.Errorf("SpeechQuality of a degraded clip = %v", z)
		}
	}
	sc.speechMS = median(speech)

	t1 := time.Now()
	src := video.NewSource(video.ClipC, video.SD, clipSeconds)
	sc.sourceMS = ms(time.Since(t1))
	tr.add("video.source", parent, req, t1, time.Now())
	p := video.SD
	var ssim, psnr []float64
	for f := 0; f < src.Frames(); f++ {
		ref := src.Frame(f)
		deg := append([]uint8(nil), ref...)
		prev := src.Frame(max(f-1, 0))
		band := p.W * p.H / 8
		copy(deg[:band], prev[:band])
		t := time.Now()
		s := qoe.SSIM(ref, deg, p.W, p.H)
		t2 := time.Now()
		qoe.PSNR(ref, deg)
		t3 := time.Now()
		tr.add("qoe.score", parent, req, t, t3)
		if !(s >= 0 && s <= 1) {
			return sc, fmt.Errorf("SSIM of a degraded frame = %v", s)
		}
		ssim = append(ssim, us(t2.Sub(t)))
		psnr = append(psnr, us(t3.Sub(t2)))
	}
	sc.ssimUS = median(ssim)
	sc.psnrUS = median(psnr)
	return sc, nil
}

// rawCodec stores byte slices as they are, so store timings cover the
// store layer (file I/O, framing, checksums) without a cell codec.
type rawCodec struct{}

func (rawCodec) Encode(v any) ([]byte, bool) {
	b, ok := v.([]byte)
	return b, ok
}

func (rawCodec) Decode(b []byte) (any, error) { return b, nil }

// storeTimings are store.Put and store.Get latencies in microseconds.
type storeTimings struct{ getP50, getP99, putP50 float64 }

// measureStore times Put (which only enqueues: persistence is off the
// hot path by contract) and Get (a disk read of an entry) for n
// entries of cell-result size in dir, after a close and reopen so the
// reads come from disk through a fresh handle.
func measureStore(dir string, n int, tr *tracer, parent, req int) (storeTimings, error) {
	var tm storeTimings
	st, err := store.Open(dir, "perfbench", rawCodec{})
	if err != nil {
		return tm, err
	}
	payload := make([]byte, 320)
	var puts []float64
	for i := 0; i < n; i++ {
		payload[0], payload[1] = byte(i), byte(i>>8)
		t := time.Now()
		ok := st.Put(fmt.Sprintf("perfbench/entry/%d", i), append([]byte(nil), payload...))
		t1 := time.Now()
		tr.add("store.put", parent, req, t, t1)
		if !ok {
			st.Close()
			return tm, fmt.Errorf("store refused entry %d", i)
		}
		puts = append(puts, us(t1.Sub(t)))
	}
	if err := st.Close(); err != nil {
		return tm, err
	}
	st, err = store.Open(dir, "perfbench", rawCodec{})
	if err != nil {
		return tm, err
	}
	defer st.Close()
	var gets []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		v, ok := st.Get(fmt.Sprintf("perfbench/entry/%d", i))
		t1 := time.Now()
		tr.add("store.get", parent, req, t, t1)
		if b, _ := v.([]byte); !ok || len(b) != len(payload) || b[0] != byte(i) || b[1] != byte(i>>8) {
			return tm, fmt.Errorf("store entry %d did not round-trip", i)
		}
		gets = append(gets, us(t1.Sub(t)))
	}
	tm.putP50 = median(puts)
	tm.getP50 = quantile(gets, 0.50)
	tm.getP99 = quantile(gets, 0.99)
	return tm, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
