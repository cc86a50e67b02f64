package bufferqoe

import (
	"strings"
	"testing"
	"time"
)

func probeOpts() Options {
	return Options{
		Seed:        5,
		Duration:    4 * time.Second,
		Warmup:      2 * time.Second,
		Reps:        1,
		ClipSeconds: 1,
		CDNFlows:    20000,
	}
}

func TestExperimentsListed(t *testing.T) {
	ids := Experiments()
	if len(ids) < 20 {
		t.Fatalf("only %d experiments", len(ids))
	}
	found := map[string]bool{}
	for _, id := range ids {
		found[id] = true
	}
	for _, want := range []string{"table1", "table2", "fig1a", "fig7b", "fig11", "abl-aqm"} {
		if !found[want] {
			t.Fatalf("missing %q", want)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("bogus", probeOpts()); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunAllCollectsErrors(t *testing.T) {
	ids := []string{"table2", "bogus", "fig1a", "fig1b"}
	s := NewSession()
	outcomes := s.RunAll(t.Context(), ids, probeOpts())
	if len(outcomes) != len(ids) {
		t.Fatalf("got %d outcomes for %d ids", len(outcomes), len(ids))
	}
	for i, oc := range outcomes {
		if oc.ID != ids[i] {
			t.Fatalf("outcome %d is %q, want %q (order not preserved)", i, oc.ID, ids[i])
		}
	}
	if outcomes[1].Err == nil {
		t.Fatal("bogus experiment did not record an error")
	}
	for _, i := range []int{0, 2, 3} {
		if outcomes[i].Err != nil {
			t.Fatalf("%s failed: %v", outcomes[i].ID, outcomes[i].Err)
		}
		if outcomes[i].Result == nil || outcomes[i].Result.Text == "" {
			t.Fatalf("%s has no result", outcomes[i].ID)
		}
	}
	// fig1a and fig1b share the CDN population cell.
	if st := s.Stats(); st.Hits == 0 {
		t.Fatalf("no cache hits across the batch: %+v", st)
	}
}

func TestParallelismControls(t *testing.T) {
	s := NewSession()
	s.SetParallelism(3)
	if s.Parallelism() != 3 {
		t.Fatalf("Parallelism() = %d after SetParallelism(3)", s.Parallelism())
	}
	s.SetParallelism(0)
	if s.Parallelism() < 1 {
		t.Fatalf("default parallelism = %d", s.Parallelism())
	}
}

func TestRunTable2(t *testing.T) {
	res, err := Run("table2", probeOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "table2" || !strings.Contains(res.Text, "backbone") {
		t.Fatalf("unexpected result: %+v", res.ID)
	}
}

func TestMeasureVoIPAccess(t *testing.T) {
	r, err := MeasureVoIP(Access, "noBG", Up, 64, probeOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.ListenMOS < 3.9 || r.TalkMOS < 3.9 {
		t.Fatalf("idle-line MOS = %+v, want excellent", r)
	}
	if r.ListenRating == "" || r.TalkRating == "" {
		t.Fatal("missing ratings")
	}
}

func TestMeasureVoIPBackbone(t *testing.T) {
	r, err := MeasureVoIP(Backbone, "noBG", "", 749, probeOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.ListenMOS < 3.9 {
		t.Fatalf("backbone idle MOS = %v", r.ListenMOS)
	}
}

func TestMeasureVoIPBadDirection(t *testing.T) {
	if _, err := MeasureVoIP(Access, "noBG", "sideways", 64, probeOpts()); err == nil {
		t.Fatal("expected error for bad direction")
	}
}

func TestMeasureWeb(t *testing.T) {
	r, err := MeasureWeb(Access, "noBG", Down, 64, probeOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.MedianPLT <= 0 || r.MedianPLT > 2*time.Second {
		t.Fatalf("PLT = %v", r.MedianPLT)
	}
	if r.MOS < 4 {
		t.Fatalf("idle-line web MOS = %v", r.MOS)
	}
}

func TestMeasureVideo(t *testing.T) {
	r, err := MeasureVideo(Backbone, "noBG", "SD", 749, probeOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.SSIM < 0.99 {
		t.Fatalf("idle-line SSIM = %v", r.SSIM)
	}
	if _, err := MeasureVideo(Access, "noBG", "4K", 64, probeOpts()); err == nil {
		t.Fatal("expected error for unknown profile")
	}
}

func TestScenariosAndBuffers(t *testing.T) {
	if len(Scenarios(Access)) != 5 || len(Scenarios(Backbone)) != 6 {
		t.Fatalf("scenario counts: %d/%d", len(Scenarios(Access)), len(Scenarios(Backbone)))
	}
	if len(BufferSizes(Access)) != 6 || len(BufferSizes(Backbone)) != 4 {
		t.Fatal("buffer sweep sizes wrong")
	}
}

func TestSizingSchemes(t *testing.T) {
	schemes := SizingSchemes(155e6, 60*time.Millisecond, 768)
	if len(schemes) != 4 {
		t.Fatalf("schemes = %d", len(schemes))
	}
	byName := map[string]Scheme{}
	for _, s := range schemes {
		byName[s.Name] = s
	}
	bdp := byName["rule-of-thumb (BDP)"]
	if bdp.Packets < 700 || bdp.Packets > 800 {
		t.Fatalf("BDP packets = %d", bdp.Packets)
	}
	st := byName["stanford (BDP/sqrt(n))"]
	if st.Packets >= bdp.Packets {
		t.Fatal("stanford not smaller than BDP")
	}
	bloat := byName["bloated (10x BDP)"]
	if bloat.MaxDelay < 500*time.Millisecond {
		t.Fatalf("bloat delay = %v", bloat.MaxDelay)
	}
}

func TestResultValueAccessor(t *testing.T) {
	res, err := Run("fig1a", probeOpts())
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Value(0, "max RTT", "mode (ms)"); v <= 0 {
		t.Fatalf("accessor value = %v", v)
	}
	// Legacy contract: Value forges 0 for unknown coordinates.
	if v := res.Value(99, "x", "y"); v != 0 {
		t.Fatalf("out-of-range grid returned %v", v)
	}
	// Lookup tells the two apart.
	if v, ok := res.Lookup(0, "max RTT", "mode (ms)"); !ok || v <= 0 {
		t.Fatalf("Lookup = (%v, %v), want the real cell", v, ok)
	}
	if _, ok := res.Lookup(99, "x", "y"); ok {
		t.Fatal("Lookup reported an out-of-range cell as present")
	}
}
