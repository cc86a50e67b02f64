package bufferqoe

import (
	"testing"
	"time"
)

// TestLegacyPathBitIdentical is the compatibility acceptance check:
// the package-level Run and Measure* functions (now thin wrappers
// over the default session) must produce bit-identical results to an
// independent Session, which in turn means the rewiring changed no
// numbers.
func TestLegacyPathBitIdentical(t *testing.T) {
	o := probeOpts()

	legacy, err := Run("fig1a", o)
	if err != nil {
		t.Fatal(err)
	}
	viaSession, err := NewSession().Run(t.Context(), "fig1a", o)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Text != viaSession.Text {
		t.Fatalf("Run diverged between legacy and session paths:\n--- legacy ---\n%s\n--- session ---\n%s",
			legacy.Text, viaSession.Text)
	}

	lv, err := MeasureVoIP(Access, "short-few", Up, 64, o)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewSession().MeasureVoIP(t.Context(), Access, "short-few", Up, 64, o)
	if err != nil {
		t.Fatal(err)
	}
	if lv != sv {
		t.Fatalf("MeasureVoIP diverged: legacy %+v vs session %+v", lv, sv)
	}

	lw, err := MeasureWeb(Backbone, "short-low", "", 749, o)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSession().MeasureWeb(t.Context(), Backbone, "short-low", "", 749, o)
	if err != nil {
		t.Fatal(err)
	}
	if lw != sw {
		t.Fatalf("MeasureWeb diverged: legacy %+v vs session %+v", lw, sw)
	}
}

// TestSessionsAreIsolated: parallelism and cache state of one session
// must not leak into another — the property the package-global design
// could not give a multi-tenant service.
func TestSessionsAreIsolated(t *testing.T) {
	a, b := NewSession(), NewSession()
	a.SetParallelism(2)
	b.SetParallelism(5)
	if a.Parallelism() != 2 || b.Parallelism() != 5 {
		t.Fatalf("parallelism leaked: a=%d b=%d", a.Parallelism(), b.Parallelism())
	}
	if _, err := a.MeasureWeb(t.Context(), Access, "noBG", Down, 64, probeOpts()); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Misses == 0 || st.Workers != 2 {
		t.Fatalf("session a stats wrong: %+v", st)
	}
	if st := b.Stats(); st.Misses != 0 || st.CachedCells != 0 {
		t.Fatalf("session a's cells leaked into b: %+v", st)
	}
}

// TestMeasureValidation: the facade must reject bad scenario names,
// buffers, and directions with errors — the seed behavior was a panic
// inside a worker goroutine.
func TestMeasureValidation(t *testing.T) {
	o := probeOpts()
	if _, err := MeasureVoIP(Access, "definitely-not-a-scenario", Down, 64, o); err == nil {
		t.Fatal("unknown access scenario must error, not panic a worker")
	}
	if _, err := MeasureVoIP(Backbone, "long-many", "", 749, o); err == nil {
		t.Fatal("access-only scenario on the backbone must error")
	}
	if _, err := MeasureWeb(Access, "noBG", Down, 0, o); err == nil {
		t.Fatal("zero buffer must error")
	}
	if _, err := MeasureWeb(Access, "noBG", Down, -8, o); err == nil {
		t.Fatal("negative buffer must error")
	}
	if _, err := MeasureVideo(Access, "noBG", "4K", 64, o); err == nil {
		t.Fatal("unknown profile must error")
	}
}

// TestOptionsNormalization: zero and negative Reps, Duration, Warmup,
// and ClipSeconds clamp to the documented defaults, so options that
// normalize equally must address the same cache entries.
func TestOptionsNormalization(t *testing.T) {
	s := NewSession()
	negative := Options{
		Seed:        9,
		Reps:        -5,
		Duration:    -3 * time.Second,
		Warmup:      -time.Second,
		ClipSeconds: -2,
		CDNFlows:    -100,
	}
	zero := Options{Seed: 9}

	r1, err := s.MeasureVoIP(t.Context(), Access, "noBG", Down, 64, negative)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := s.Stats()
	if afterFirst.Misses == 0 {
		t.Fatalf("first probe did not simulate: %+v", afterFirst)
	}
	r2, err := s.MeasureVoIP(t.Context(), Access, "noBG", Down, 64, zero)
	if err != nil {
		t.Fatal(err)
	}
	afterSecond := s.Stats()
	if afterSecond.Misses != afterFirst.Misses {
		t.Fatalf("equal normalized options re-simulated: %+v -> %+v", afterFirst, afterSecond)
	}
	if afterSecond.Hits == afterFirst.Hits {
		t.Fatalf("equal normalized options missed the cache: %+v -> %+v", afterFirst, afterSecond)
	}
	if r1 != r2 {
		t.Fatalf("normalized options gave different results: %+v vs %+v", r1, r2)
	}

	// The defaulted run must match an explicit spelling of the
	// documented defaults (seed aside, which has its own default).
	explicit := Options{Seed: 9, Duration: 30 * time.Second, Warmup: 5 * time.Second, Reps: 3, ClipSeconds: 4, CDNFlows: 200000}
	r3, err := s.MeasureVoIP(t.Context(), Access, "noBG", Down, 64, explicit)
	if err != nil {
		t.Fatal(err)
	}
	if r3 != r1 {
		t.Fatalf("explicit defaults diverge from clamped options: %+v vs %+v", r3, r1)
	}
	if st := s.Stats(); st.Misses != afterSecond.Misses {
		t.Fatalf("explicit defaults re-simulated: %+v -> %+v", afterSecond, st)
	}
}
