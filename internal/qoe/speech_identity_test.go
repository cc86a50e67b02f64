package qoe

import (
	"math"
	"testing"

	"bufferqoe/internal/media"
	"bufferqoe/internal/sim"
)

// frameTreatment rewrites one degraded frame in place, given its
// reference frame; refEdit may first rewrite the reference itself.
type frameTreatment struct {
	name    string
	refEdit func(rf []float64, rng *sim.RNG)
	degEdit func(rf, df []float64, rng *sim.RNG)
}

var treatments = []frameTreatment{
	{name: "identical"},
	{name: "zeroed", degEdit: func(_, df []float64, _ *sim.RNG) { clear(df) }},
	{name: "rescaled", degEdit: func(rf, df []float64, rng *sim.RNG) {
		k := []float64{0.5, 0.999, 1.001, 2, -1}[rng.IntN(5)]
		for i, v := range rf {
			df[i] = k * v
		}
	}},
	{name: "noise-added", degEdit: func(rf, df []float64, rng *sim.RNG) {
		amp := []float64{1e-9, 1e-4, 0.01, 0.3}[rng.IntN(4)]
		for i, v := range rf {
			df[i] = v + amp*(rng.Float64()*2-1)
		}
	}},
	{name: "one-sample", degEdit: func(rf, df []float64, rng *sim.RNG) {
		i := rng.IntN(len(df))
		df[i] = math.Nextafter(rf[i], math.Inf(1))
	}},
	{name: "silent-both", refEdit: func(rf []float64, _ *sim.RNG) { clear(rf) },
		degEdit: func(_, df []float64, _ *sim.RNG) { clear(df) }},
	{name: "silent-noisy", refEdit: func(rf []float64, _ *sim.RNG) { clear(rf) },
		degEdit: func(_, df []float64, rng *sim.RNG) {
			for i := range df {
				df[i] = 0.05 * (rng.Float64()*2 - 1)
			}
		}},
	{name: "signed-zeros", refEdit: func(rf []float64, rng *sim.RNG) {
		for i := range rf {
			if rng.Bool(0.5) {
				rf[i] = 0
			}
		}
	}, degEdit: func(rf, df []float64, _ *sim.RNG) {
		for i, v := range rf {
			if v == 0 {
				df[i] = math.Copysign(0, -1)
			}
		}
	}},
	{name: "nan-ref", refEdit: func(rf []float64, rng *sim.RNG) { rf[rng.IntN(len(rf))] = math.NaN() },
		degEdit: func(rf, df []float64, _ *sim.RNG) { copy(df, rf) }},
	{name: "nan-deg", degEdit: func(_, df []float64, rng *sim.RNG) { df[rng.IntN(len(df))] = math.NaN() }},
	{name: "inf-both", refEdit: func(rf []float64, rng *sim.RNG) { rf[rng.IntN(len(rf))] = math.Inf(1) },
		degEdit: func(rf, df []float64, _ *sim.RNG) { copy(df, rf) }},
	{name: "huge-both", refEdit: func(rf []float64, rng *sim.RNG) {
		rf[rng.IntN(len(rf))] = []float64{1e99, 1e101, -1e160, 1e300}[rng.IntN(4)]
	}, degEdit: func(rf, df []float64, _ *sim.RNG) { copy(df, rf) }},
}

// mixedSignals builds a reference and a degraded signal whose frames
// draw treatments at random; deg's length is ragged against ref's.
// Like a real call, most frames arrive untouched: each frame is
// treated with a per-signal damage rate, so scores spread over the
// MOS scale rather than collapsing onto its floor.
func mixedSignals(rng *sim.RNG, sampleRate int) (ref, deg []float64, used []string) {
	damage := []float64{0.02, 0.1, 0.3, 1}[rng.IntN(4)]
	frame := sampleRate / 50
	n := 1 + rng.IntN(100) // frameless rates: any short signal
	if frame > 0 {
		n = (1+rng.IntN(60))*frame + rng.IntN(frame)
	}
	ref = media.ALawRoundTrip(media.GenerateSpeech(rng, float64(n)/media.SampleRate, 110+100*rng.Float64()))
	deg = make([]float64, len(ref))
	copy(deg, ref)
	for off := 0; frame > 0 && off+frame <= len(ref); off += frame {
		tr := treatments[0] // identical
		if rng.Bool(damage) {
			tr = treatments[1+rng.IntN(len(treatments)-1)]
		}
		used = append(used, tr.name)
		rf, df := ref[off:off+frame], deg[off:off+frame]
		if tr.refEdit != nil {
			tr.refEdit(rf, rng)
			copy(df, rf)
		}
		if tr.degEdit != nil {
			tr.degEdit(rf, df, rng)
		}
	}
	switch rng.IntN(3) {
	case 0: // degraded signal cut short, possibly mid-frame
		deg = deg[:rng.IntN(len(deg)+1)]
	case 1: // degraded signal runs past the reference
		deg = append(deg, make([]float64, rng.IntN(3*frame+1))...)
	}
	return ref, deg, used
}

// TestSpeechQualityMatchesOracle is the differential test for the
// untouched-frame shortcut: over random signals mixing every frame
// treatment, ragged lengths and several sample rates, SpeechQuality
// must return the pre-shortcut estimator's result bit for bit.
func TestSpeechQualityMatchesOracle(t *testing.T) {
	rng := sim.NewRNG(12, "speech-oracle")
	seen := map[string]bool{}
	inside := 0 // scores strictly inside the MOS clamp
	for trial := 0; trial < 400; trial++ {
		sampleRate := []int{media.SampleRate, media.SampleRate, 16000, 4000, 49}[rng.IntN(5)]
		ref, deg, used := mixedSignals(rng, sampleRate)
		for _, u := range used {
			seen[u] = true
		}
		got := SpeechQuality(ref, deg, sampleRate)
		want := oracleSpeechQuality(ref, deg, sampleRate)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (rate %d, %d/%d samples, frames %v): got %v (%#x), oracle %v (%#x)",
				trial, sampleRate, len(ref), len(deg), used, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if got > 1 && got < 4.5 {
			inside++
		}
	}
	if inside < 100 {
		t.Errorf("only %d of 400 scores fell inside (1, 4.5); the signals do not exercise the estimator", inside)
	}
	for _, tr := range treatments {
		if !seen[tr.name] {
			t.Errorf("treatment %q never drawn", tr.name)
		}
	}
}

// TestSpeechQualityMatchesOracleOnExtremeFrames puts one frame holding
// an extreme sample, equal in both signals, next to distorted frames:
// a frame whose squares overflow turns the oracle's distortion sum
// into NaN, which must not be mistaken for an untouched frame.
func TestSpeechQualityMatchesOracleOnExtremeFrames(t *testing.T) {
	base := media.SpeechSample(9, 1).PCM[:100*media.FrameSamples]
	f := media.FrameSamples
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e160, -1e160, 1e300,
		math.MaxFloat64, 1e99, 1e101, math.SmallestNonzeroFloat64} {
		ref := append([]float64(nil), base...)
		for i := 0; i < f; i += 17 {
			ref[f+i] = v
		}
		deg := append([]float64(nil), ref...)
		for i := 3 * f; i < 40*f; i++ {
			deg[i] *= 2
		}
		got := SpeechQuality(ref, deg, media.SampleRate)
		want := oracleSpeechQuality(ref, deg, media.SampleRate)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("extreme sample %v: got %v, oracle %v", v, got, want)
		}
	}
}

// TestSpeechQualityLibraryMatchesOracle pins the production shape: a
// library sample scored against copies with lost (zeroed) frames at
// several densities, as voip.Call.finish builds them.
func TestSpeechQualityLibraryMatchesOracle(t *testing.T) {
	lib := media.Library(3)
	for i, s := range lib[:4] {
		for _, loss := range []float64{0, 0.01, 0.05, 0.3, 1} {
			deg := degradeFrames(s.PCM, loss, uint64(i))
			got := SpeechQuality(s.PCM, deg, media.SampleRate)
			want := oracleSpeechQuality(s.PCM, deg, media.SampleRate)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s at %.0f%% loss: got %v, oracle %v", s.Name, 100*loss, got, want)
			}
		}
	}
}

// TestSpeechQualityAllocationFree pins zero allocations per call on
// the telephony rate, both when every frame is untouched or lost and
// when some frames need band analysis.
func TestSpeechQualityAllocationFree(t *testing.T) {
	ref := media.SpeechSample(5, 0).PCM
	lost := degradeFrames(ref, 0.05, 1)
	noisy := append([]float64(nil), lost...)
	for i := 0; i < len(noisy); i += 7 {
		noisy[i] *= 1.01
	}
	for name, deg := range map[string][]float64{"untouched-or-lost": lost, "band-analysis": noisy} {
		if a := testing.AllocsPerRun(5, func() { SpeechQuality(ref, deg, media.SampleRate) }); a != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, a)
		}
	}
}
