package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"bufferqoe"
)

func validCells() []bufferqoe.SweepCell {
	return []bufferqoe.SweepCell{
		{Scenario: "access/short-few/down", Probe: "voip", Buffer: 64, Metric: "mos", Value: 4.1, MOS: 4.1, TalkMOS: 3.9, TalkRating: "satisfied"},
		{Scenario: "access/short-few/down", Probe: "web", Buffer: 64, Metric: "plt_s", Value: 1.7, MOS: 3.2},
		{Scenario: "access/short-few/down", Probe: "video:SD", Buffer: 64, Metric: "ssim", Value: 0.97, MOS: 4.4},
	}
}

func TestCheckCellRanges(t *testing.T) {
	for _, c := range validCells() {
		if msg := checkCell(c); msg != "" {
			t.Fatalf("valid cell rejected: %s", msg)
		}
	}
	bad := []func(*bufferqoe.SweepCell){
		func(c *bufferqoe.SweepCell) { c.Value = 5.01 },
		func(c *bufferqoe.SweepCell) { c.MOS = math.NaN() },
		func(c *bufferqoe.SweepCell) { c.TalkMOS = 0 },
	}
	for i, mutate := range bad {
		c := validCells()[0]
		mutate(&c)
		if checkCell(c) == "" {
			t.Errorf("voip mutation %d accepted", i)
		}
	}
	web := validCells()[1]
	web.Value = 0
	if checkCell(web) == "" {
		t.Error("zero page load time accepted")
	}
	video := validCells()[2]
	video.Value = 1.0000001
	if checkCell(video) == "" {
		t.Error("SSIM above 1 accepted")
	}
}

// TestPerturbedCellFailsDigest: a one-ulp change to any cell value
// changes the digest, so a pinned run fails the check.
func TestPerturbedCellFailsDigest(t *testing.T) {
	cells := validCells()
	want := digestCells(cells)
	if digestCells(validCells()) != want {
		t.Fatal("digest is not deterministic")
	}
	cells[1].Value = math.Nextafter(cells[1].Value, 2)
	if checkCell(cells[1]) != "" {
		t.Fatal("perturbed value should still be in range")
	}
	got := digestCells(cells)
	if got == want {
		t.Fatal("a one-ulp perturbation did not change the digest")
	}

	res := newResult()
	pinsJSON = []byte(`{"w": {"digest": "` + want + `"}}`)
	defer func() { pinsJSON = embeddedPins }()
	checkDigest(res, "w", defaultSeed, got)
	if len(res.problems) != 1 || !strings.Contains(res.problems[0], "differs from pinned") {
		t.Fatalf("perturbed digest not reported: %v", res.problems)
	}
	res = newResult()
	checkDigest(res, "w", defaultSeed, want)
	if len(res.problems) != 0 {
		t.Fatalf("pinned digest rejected: %v", res.problems)
	}
	res = newResult()
	checkDigest(res, "w", defaultSeed+1, got)
	if len(res.problems) != 0 {
		t.Fatalf("other seeds are not pinned: %v", res.problems)
	}
}

func TestPinnedCountsMismatch(t *testing.T) {
	pinsJSON = []byte(`{"w": {"sim_events": 10, "packets": 5, "bottleneck_drops": 2, "mac_collisions": 1}}`)
	defer func() { pinsJSON = embeddedPins }()
	res := newResult()
	checkCounts(res, "w", defaultSeed, pin{SimEvents: 10, Packets: 5, Drops: 2, Collisions: 1})
	if len(res.problems) != 0 {
		t.Fatalf("matching counts rejected: %v", res.problems)
	}
	checkCounts(res, "w", defaultSeed, pin{SimEvents: 11, Packets: 5, Drops: 2, Collisions: 1})
	if len(res.problems) != 1 {
		t.Fatalf("one extra event not reported: %v", res.problems)
	}
}

func TestEmbeddedPinsCoverEveryWorkload(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for name := range workloads {
		if p := pins[name]; p.Digest == "" || p.SimEvents == 0 || p.Packets == 0 {
			t.Errorf("workload %s has no complete pin: %+v", name, p)
		}
	}
}

func TestQuantileAndCovered(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input")
	}
	// Children [1,3] and [2,5] overlap; clipped to the parent [0,4]
	// they cover [1,4].
	if got := covered([][2]float64{{2, 5}, {1, 3}}, 0, 4); got != 3 {
		t.Errorf("covered = %v, want 3", got)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"bufferqoe/internal/sim.(*Engine).siftDown": "sim",
		"bufferqoe/internal/qoe.SpeechQuality":      "qoe",
		"runtime.mallocgc":                          "runtime",
		"runtime/internal/syscall.Syscall6":         "runtime",
		"bufferqoe.(*Session).Sweep":                "facade",
		"encoding/json.(*decodeState).object":       "json",
		"math.Sqrt":                                 "math",
		"internal/runtime/maps.ctrlGroup.matchFull": "runtime",
		"aeshashbody":                               "runtime",
		"sort.Ints":                                 "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSharesOfTop(t *testing.T) {
	top := []byte(`File: perfbench
Type: cpu
Showing nodes accounting for 1000ns, 100% of 1000ns total
      flat  flat%   sum%        cum   cum%
     600ns 60.00% 60.00%      600ns 60.00%  bufferqoe/internal/sim.(*Engine).siftDown
     300ns 30.00% 90.00%      300ns 30.00%  runtime.mallocgc
     100ns 10.00%   100%      100ns 10.00%  math.Sqrt
         0     0%   100%     1000ns   100%  main.main
`)
	shares, err := sharesOfTop(top)
	if err != nil {
		t.Fatal(err)
	}
	for pkg, want := range map[string]float64{"sim": 0.6, "runtime": 0.3, "math": 0.1, "main": 0} {
		if math.Abs(shares[pkg]-want) > 1e-12 {
			t.Errorf("share %s = %v, want %v", pkg, shares[pkg], want)
		}
	}
	if _, err := sharesOfTop([]byte("pprof: no samples\n")); err == nil {
		t.Error("output without a table parsed without error")
	}
}

// TestCPUSharesOfRuntimeProfile runs a real runtime/pprof profile
// through go tool pprof.
func TestCPUSharesOfRuntimeProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go tool pprof")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for i := 0; i < 50_000_000; i++ {
		x += math.Sqrt(float64(i))
	}
	pprof.StopCPUProfile()
	if x == 0 {
		t.Fatal("loop optimized away")
	}
	shares, err := cpuShares(buf.Bytes(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, pkg := range sharePackages {
		sum += shares[pkg]
	}
	if sum != 0 && math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
}

func TestReplayOfCopiesLinkAndRefusesUnmodelled(t *testing.T) {
	link := bufferqoe.WifiLink(8)
	link.Wifi.RetryLimit, link.Wifi.MaxAggFrames, link.Reorder = 5, 16, 0.01
	sc := bufferqoe.Scenario{Network: bufferqoe.Access, Link: &link, CC: bufferqoe.BBR, Workload: "long-many", Direction: bufferqoe.Bidir}
	c, err := replayOf(sc, 32, bufferqoe.Options{Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	w := c.link.Wifi
	if w.Stations != 8 || w.RetryLimit != 5 || w.MaxAggFrames != 16 || c.link.Reorder != 0.01 || c.cc == nil {
		t.Fatalf("replay cell lost link fields: %+v", c.link)
	}
	for name, mod := range map[string]func(*bufferqoe.Scenario){
		"aqm":      func(s *bufferqoe.Scenario) { s.AQM = bufferqoe.CoDel },
		"jitter":   func(s *bufferqoe.Scenario) { s.Jitter = time.Millisecond },
		"bufferUp": func(s *bufferqoe.Scenario) { s.BufferUp = 16 },
		"mix":      func(s *bufferqoe.Scenario) { s.Mix = &bufferqoe.Workload{} },
		"cc":       func(s *bufferqoe.Scenario) { s.CC = bufferqoe.Reno },
	} {
		s := sc
		mod(&s)
		if _, err := replayOf(s, 32, bufferqoe.Options{}); err == nil {
			t.Errorf("%s: unmodelled scenario field accepted", name)
		}
	}
}

func TestScoringWorkFollowsCells(t *testing.T) {
	cells := []bufferqoe.SweepCell{
		{Metric: "mos", MOS: 4, TalkMOS: 4}, // access VoIP: listen + talk
		{Metric: "mos", MOS: 4},             // backbone VoIP: listen only
		{Metric: "ssim", MOS: 4},
		{Metric: "plt_s", MOS: 4},
	}
	speech, frames := scoringWork(cells, 3, 2)
	if speech != 9 || frames != 150 {
		t.Fatalf("scoringWork = %d speech calls, %d frames; want 9 and 150", speech, frames)
	}
}

// TestToReferenceScalesTimesAndRates: with the machine k times slower
// than the reference, times are divided by k and rates multiplied by
// it; other units are left alone. The factor ignores the outer tenths.
func TestToReferenceScalesTimesAndRates(t *testing.T) {
	m := &speedMeter{ks: []float64{0.1, 2, 2, 2, 2, 2, 2, 2, 2, 40}}
	if k := m.factor(); k != 2 {
		t.Fatalf("factor = %v, want 2 (the outer tenths trimmed)", k)
	}
	res := newResult()
	res.set("setup_s", 0.5, "s")
	res.set("req_p50_ms", 3, "ms")
	res.set("req_per_s", 100, "req/s")
	res.set("peak_rss_mb", 200, "MiB")
	res.set("sim.events", 7, "count")
	var out bytes.Buffer
	m.toReference(res, &out)
	want := map[string]float64{"setup_s": 0.25, "req_p50_ms": 1.5, "req_per_s": 200, "peak_rss_mb": 200, "sim.events": 7}
	for n, v := range want {
		if got := res.Metrics[n].Value; got != v {
			t.Errorf("%s = %v, want %v", n, got, v)
		}
	}
	if !strings.Contains(out.String(), "# raw req_per_s") || strings.Contains(out.String(), "# raw peak_rss_mb") {
		t.Errorf("raw lines should list exactly the rescaled metrics:\n%s", out.String())
	}
}

// TestSpeedPauseRecordsAFactor: a pause records one positive factor; a
// nil meter (traced runs) only collects the heap.
func TestSpeedPauseRecordsAFactor(t *testing.T) {
	var nilMeter *speedMeter
	nilMeter.pause()
	m := newSpeedMeter()
	m.pause()
	if len(m.ks) != 1 || !(m.ks[0] > 0) {
		t.Fatalf("ks = %v, want one positive factor", m.ks)
	}
}
