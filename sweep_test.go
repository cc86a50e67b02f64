package bufferqoe

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// sweepOpts are small enough for unit tests; probes ignore Duration.
func sweepOpts() Options {
	return Options{Seed: 11, Warmup: 2 * time.Second, Reps: 1, ClipSeconds: 1}
}

// TestSweepCustomLinkEndToEnd is the acceptance check for the
// composable API: a non-paper link (symmetric fiber) with a non-paper
// queue discipline (CoDel) runs end to end through Sweep.
func TestSweepCustomLinkEndToEnd(t *testing.T) {
	fiber := FiberLink()
	sw := Sweep{
		Scenarios: []Scenario{
			{Name: "fiber-idle", Link: &fiber},
			{Name: "fiber-codel-up", Link: &fiber, Workload: "short-few", Direction: Up, AQM: CoDel},
		},
		Buffers: []int{16, 64},
		Probes:  []Probe{{Media: VoIP}, {Media: Web}},
	}
	s := NewSession()
	g, err := s.Sweep(sw, sweepOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Cells) != 2*2*2 {
		t.Fatalf("cell count = %d, want 8", len(g.Cells))
	}
	c, ok := g.Cell("fiber-idle", "voip", 16)
	if !ok {
		t.Fatal("missing fiber-idle/voip/16 cell")
	}
	if c.MOS < 3.9 || c.TalkMOS < 3.9 {
		t.Fatalf("idle gigabit fiber VoIP MOS = %+v, want excellent", c)
	}
	if c.Rating == "" || c.Metric != "mos" {
		t.Fatalf("cell missing rating/metric: %+v", c)
	}
	w, ok := g.Cell("fiber-codel-up", "web", 64)
	if !ok {
		t.Fatal("missing fiber-codel-up/web/64 cell")
	}
	if w.Metric != "plt_s" || w.Value <= 0 || w.Value > 2 {
		t.Fatalf("fiber web PLT = %+v, want fast load", w)
	}

	txt := g.Text()
	for _, want := range []string{"fiber-idle", "fiber-codel-up", "voip", "web", "16", "64"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("Text() missing %q:\n%s", want, txt)
		}
	}
	raw, err := g.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Grid
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if len(back.Cells) != len(g.Cells) || back.Cells[0].Rating == "" {
		t.Fatalf("JSON lost cells: %+v", back.Cells[0])
	}
}

// TestSweepFasterLinkLoadsFaster pins the physics: the same workload
// and page load on a gigabit custom link beats the paper's DSL line.
func TestSweepFasterLinkLoadsFaster(t *testing.T) {
	fiber := FiberLink()
	sw := Sweep{
		Scenarios: []Scenario{
			{Name: "dsl"},
			{Name: "fiber", Link: &fiber},
		},
		Buffers: []int{64},
		Probes:  []Probe{{Media: Web}},
	}
	g, err := NewSession().Sweep(sw, sweepOpts())
	if err != nil {
		t.Fatal(err)
	}
	dsl, _ := g.Cell("dsl", "web", 64)
	fib, _ := g.Cell("fiber", "web", 64)
	if fib.Value >= dsl.Value {
		t.Fatalf("fiber PLT %.3fs not faster than DSL %.3fs", fib.Value, dsl.Value)
	}
}

// TestSweepBackboneAndJitter covers the preset-backbone and
// jittery-access corners of the scenario space.
func TestSweepBackboneAndJitter(t *testing.T) {
	sw := Sweep{
		Scenarios: []Scenario{
			{Name: "bb", Network: Backbone, Workload: "short-low"},
			{Name: "lte-ish", Link: linkPtr(LTELink()), Jitter: 5 * time.Millisecond},
		},
		Buffers: []int{64},
		Probes:  []Probe{{Media: VoIP}, {Media: Video, Profile: "SD"}},
	}
	g, err := NewSession().Sweep(sw, sweepOpts())
	if err != nil {
		t.Fatal(err)
	}
	bb, _ := g.Cell("bb", "voip", 64)
	if bb.MOS <= 0 || bb.TalkMOS != 0 {
		t.Fatalf("backbone VoIP cell = %+v (talk direction must be empty)", bb)
	}
	v, _ := g.Cell("lte-ish", "video:SD", 64)
	if v.Metric != "ssim" || v.Value <= 0 || v.Value > 1 {
		t.Fatalf("LTE video cell = %+v", v)
	}
}

func linkPtr(l Link) *Link { return &l }

// TestSweepValidation: every invalid corner must fail the call before
// simulation, not panic a worker.
func TestSweepValidation(t *testing.T) {
	valid := Scenario{Workload: "short-few"}
	probe := Probe{Media: VoIP}
	cases := []struct {
		name string
		sw   Sweep
	}{
		{"empty axes", Sweep{}},
		{"unknown workload", Sweep{Scenarios: []Scenario{{Workload: "nope"}}, Buffers: []int{8}, Probes: []Probe{probe}}},
		{"unknown media", Sweep{Scenarios: []Scenario{valid}, Buffers: []int{8}, Probes: []Probe{{Media: "carrier-pigeon"}}}},
		{"bad buffer", Sweep{Scenarios: []Scenario{valid}, Buffers: []int{0}, Probes: []Probe{probe}}},
		{"bad direction", Sweep{Scenarios: []Scenario{{Workload: "short-few", Direction: "sideways"}}, Buffers: []int{8}, Probes: []Probe{probe}}},
		{"bad AQM", Sweep{Scenarios: []Scenario{{Workload: "short-few", AQM: "madness"}}, Buffers: []int{8}, Probes: []Probe{probe}}},
		{"bad CC", Sweep{Scenarios: []Scenario{{Workload: "short-few", CC: "quic"}}, Buffers: []int{8}, Probes: []Probe{probe}}},
		{"backbone custom link", Sweep{Scenarios: []Scenario{{Network: Backbone, Link: linkPtr(FiberLink())}}, Buffers: []int{8}, Probes: []Probe{probe}}},
		{"backbone up congestion", Sweep{Scenarios: []Scenario{{Network: Backbone, Workload: "long", Direction: Up}}, Buffers: []int{8}, Probes: []Probe{probe}}},
		{"profile on voip", Sweep{Scenarios: []Scenario{valid}, Buffers: []int{8}, Probes: []Probe{{Media: VoIP, Profile: "HD"}}}},
		{"unknown profile", Sweep{Scenarios: []Scenario{valid}, Buffers: []int{8}, Probes: []Probe{{Media: Video, Profile: "8K"}}}},
		{"duplicate labels", Sweep{Scenarios: []Scenario{valid, valid}, Buffers: []int{8}, Probes: []Probe{probe}}},
		{"duplicate probes", Sweep{Scenarios: []Scenario{valid}, Buffers: []int{8}, Probes: []Probe{{Media: Video}, {Media: Video, Profile: "SD"}}}},
		{"duplicate probes case-folded", Sweep{Scenarios: []Scenario{valid}, Buffers: []int{8}, Probes: []Probe{{Media: Video, Profile: "sd"}, {Media: Video, Profile: "SD"}}}},
		{"duplicate buffers", Sweep{Scenarios: []Scenario{valid}, Buffers: []int{8, 8}, Probes: []Probe{probe}}},
		{"negative link rate", Sweep{Scenarios: []Scenario{{Link: &Link{UpRate: -1e6}}}, Buffers: []int{8}, Probes: []Probe{probe}}},
		{"negative link delay", Sweep{Scenarios: []Scenario{{Link: &Link{ClientDelay: -time.Millisecond}}}, Buffers: []int{8}, Probes: []Probe{probe}}},
	}
	s := NewSession()
	for _, tc := range cases {
		if _, err := s.Sweep(tc.sw, sweepOpts()); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
}

// TestScenarioLabels pins the derived label format.
func TestScenarioLabels(t *testing.T) {
	fiber := FiberLink()
	cases := []struct {
		sc   Scenario
		want string
	}{
		{Scenario{}, "access/noBG"},
		{Scenario{Workload: "long-many", Direction: Up}, "access/long-many/up"},
		{Scenario{Network: Backbone, Workload: "long"}, "backbone/long"},
		{Scenario{Link: &fiber, Workload: "short-few", AQM: CoDel}, "custom(1G/1G@2ms/10ms)/short-few/down+codel"},
		{Scenario{Link: &Link{UpRate: 1e9, DownRate: 1e9}}, "custom(1G/1G)/noBG"},
		{Scenario{Link: &Link{UpRate: 1e9, DownRate: 1e9, ClientDelay: 50 * time.Millisecond}}, "custom(1G/1G@50ms/dflt)/noBG"},
		{Scenario{Name: "mine", Workload: "short-few"}, "mine"},
		{Scenario{Jitter: 2 * time.Millisecond}, "access/noBG+j2ms"},
	}
	for _, tc := range cases {
		if got := tc.sc.Label(); got != tc.want {
			t.Fatalf("Label() = %q, want %q", got, tc.want)
		}
	}
}

// TestMeasureProbesShareSweepCache: a Measure* probe of a cell a
// sweep has visited must be answered from the session cache, and it
// must report that sweep cell's values field by field — the probes
// score through the same mapping as Sweep, on both testbeds.
func TestMeasureProbesShareSweepCache(t *testing.T) {
	s := NewSession()
	o := sweepOpts()
	probes := []Probe{{Media: VoIP}, {Media: Web}, {Media: Video, Profile: "SD"}}
	// Congested workloads, so that listen and talk MOS differ on the
	// access line and a swapped field cannot pass. Downstream
	// congestion, because MeasureVideo takes no direction.
	for _, tc := range []struct {
		n   Network
		wl  string
		dir Direction
		buf int
	}{{Access, "short-few", Down, 64}, {Backbone, "short-low", "", 749}} {
		sc := Scenario{Network: tc.n, Workload: tc.wl, Direction: tc.dir}
		g, err := s.Sweep(Sweep{Scenarios: []Scenario{sc}, Buffers: []int{tc.buf}, Probes: probes}, o)
		if err != nil {
			t.Fatal(err)
		}
		before := s.Stats()
		v, err := s.MeasureVoIP(t.Context(), tc.n, tc.wl, tc.dir, tc.buf, o)
		if err != nil {
			t.Fatal(err)
		}
		w, err := s.MeasureWeb(t.Context(), tc.n, tc.wl, tc.dir, tc.buf, o)
		if err != nil {
			t.Fatal(err)
		}
		vid, err := s.MeasureVideo(t.Context(), tc.n, tc.wl, "SD", tc.buf, o)
		if err != nil {
			t.Fatal(err)
		}
		after := s.Stats()
		if after.Misses != before.Misses || after.Hits != before.Hits+3 {
			t.Fatalf("%s: probes did not all hit the swept cells: %+v -> %+v", tc.n, before, after)
		}

		c := g.Cells[0]
		if v.ListenMOS != c.MOS || v.ListenMOS != c.Value || v.ListenRating != c.Rating ||
			v.TalkMOS != c.TalkMOS || v.TalkRating != c.TalkRating {
			t.Fatalf("%s: MeasureVoIP %+v != sweep cell %+v", tc.n, v, c)
		}
		if tc.n == Access && (v.TalkMOS <= 0 || v.TalkRating == "") {
			t.Fatalf("access: talk direction missing: %+v", v)
		}
		if tc.n == Backbone && (v.TalkMOS != 0 || v.TalkRating != "") {
			t.Fatalf("backbone: talk direction reported on a one-way path: %+v", v)
		}
		c = g.Cells[1]
		if w.MedianPLT.Seconds() != c.Value || w.MOS != c.MOS || w.Rating != c.Rating {
			t.Fatalf("%s: MeasureWeb %+v != sweep cell %+v", tc.n, w, c)
		}
		c = g.Cells[2]
		if vid.SSIM != c.Value || vid.MOS != c.MOS || vid.Rating != c.Rating {
			t.Fatalf("%s: MeasureVideo %+v != sweep cell %+v", tc.n, vid, c)
		}
	}
}
