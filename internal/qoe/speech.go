package qoe

import (
	"math"
)

// SpeechQuality is a PESQ-style full-reference speech quality
// estimator: it compares the degraded signal against the error-free
// reference and returns a listening-quality MOS in [1, 4.5].
//
// Substitution note: ITU-T P.862 (PESQ) is a standard whose reference
// implementation is licensed, not redistributable. This estimator
// keeps PESQ's structure — frame-wise perceptual band analysis of
// both signals, asymmetric disturbance aggregation weighted by speech
// activity, logistic mapping to MOS — and is calibrated to the
// operating points the paper reports (clean G.711 -> ~4.4; heavy
// loss/concealment -> ~1). It is monotone in concealment-gap density
// and in added-noise energy, which is what the buffer/workload
// sensitivity study needs.
func SpeechQuality(ref, deg []float64, sampleRate int) float64 {
	n := len(ref)
	if len(deg) < n {
		n = len(deg)
	}
	frame := sampleRate / 50 // 20 ms
	if frame == 0 || n < frame {
		return 1
	}
	// Band analysis (band centers, Hann window, two level buffers) is
	// set up only once a frame actually needs it: on the VoIP path
	// almost every frame is untouched or lost, and neither kind does.
	var bands, win []float64
	var lrBuf, ldBuf [maxBands]float64

	// Two disturbance components, PESQ-style:
	//   - gross temporal disruptions (concealment gaps, bursts) —
	//     their *density* among speech-active frames drives quality,
	//     calibrated against the ITU G.711 packet-loss MOS curves;
	//   - background spectral distortion of the surviving frames
	//     (codec noise, mild clipping).
	var nActive, disrupted int
	var distBg float64
	var nBg int
	var noiseFrames int
	for off := 0; off+frame <= n; off += frame {
		rf := ref[off : off+frame]
		df := deg[off : off+frame]
		if untouched(rf, df) {
			// Every term an untouched frame feeds — totalDiff, each
			// band diff, the distBg increment — is exactly zero, and
			// a silent one never counts as injected noise; only the
			// activity counters move (DESIGN.md, "Third perf wave").
			if rms(rf) > 0.01 {
				nActive++
				nBg++
			}
			continue
		}
		eRef := rms(rf)
		eDeg := rms(df)
		if eRef <= 0.01 {
			if eDeg > 3*eRef+0.005 {
				noiseFrames++ // audible noise injected into silence
			}
			continue
		}
		nActive++
		totalDiff := math.Abs(10 * math.Log10((eRef*eRef+1e-8)/(eDeg*eDeg+1e-8)))
		if totalDiff > 15 {
			// Muted/concealed or grossly distorted frame.
			disrupted++
			continue
		}
		// Masking floor: band energy 40 dB below the frame total is
		// inaudible next to the rest of the frame; flooring both
		// signals there keeps quantization noise in empty bands from
		// dominating the distortion.
		floor := eRef*eRef*1e-4 + 1e-8
		if win == nil {
			bands, win = analysis(sampleRate)
		}
		lr, ld := lrBuf[:len(bands)], ldBuf[:len(bands)]
		bandLevels(lr, rf, win, sampleRate, bands, floor)
		bandLevels(ld, df, win, sampleRate, bands, floor)
		var d float64
		for b := range bands {
			diff := lr[b] - ld[b]
			if diff < 0 {
				// Added energy (noise) is more annoying than missing
				// energy (PESQ's asymmetry factor).
				diff = -1.4 * diff
			}
			d += diff
		}
		distBg += d / float64(len(bands))
		nBg++
	}
	if nActive == 0 {
		return 1
	}
	// Gap density -> MOS along the ITU-style exponential loss curve:
	// 0% -> 4.45, 5% -> ~3.3, 10% -> ~2.5, 20% -> ~1.65.
	fGap := float64(disrupted) / float64(nActive)
	mos := 1 + 3.45*math.Exp(-fGap/0.12)
	// Background distortion penalty with a small inaudibility
	// threshold (keeps G.711 companding nearly free).
	if nBg > 0 {
		dbg := distBg/float64(nBg) - 1
		if dbg > 0 {
			mos -= 0.35 * math.Pow(dbg, 0.8)
		}
	}
	// Noise in pauses is mildly annoying.
	mos -= 2 * float64(noiseFrames) / float64(n/frame)
	if mos > 4.5 {
		mos = 4.5
	}
	if mos < 1 {
		mos = 1
	}
	return mos
}

// untouchedLimit bounds the samples of a frame untouched may report:
// below it every square, Goertzel state and band power of a 20 ms
// frame stays finite, so equal inputs give equal, finite terms and
// their differences are exactly zero.
const untouchedLimit = 1e100

// untouched reports whether the degraded frame equals the reference
// frame element by element, with every sample finite and below
// untouchedLimit in magnitude. NaN never compares equal and ±Inf
// exceeds the limit, so such frames take the full analysis path.
//
//qoe:hotpath
func untouched(ref, deg []float64) bool {
	for i, v := range ref {
		if v != deg[i] || v > untouchedLimit || v < -untouchedLimit {
			return false
		}
	}
	return true
}

// maxBands is the most analysis bands speechBands returns.
const maxBands = 8

// The 8 kHz telephony analysis setup, built once: the same values a
// per-call build produces, without its allocations.
var (
	narrowbandBands = speechBands(8000)
	narrowbandWin   = hannWindow(8000 / 50)
)

// analysis returns the band centers and the one-frame Hann window
// every analysed frame at a sample rate shares.
func analysis(sampleRate int) (bands, win []float64) {
	if sampleRate == 8000 {
		return narrowbandBands, narrowbandWin
	}
	return speechBands(sampleRate), hannWindow(sampleRate / 50)
}

// speechBands returns the analysis band center frequencies, roughly
// mel-spaced over the telephony band.
func speechBands(sampleRate int) []float64 {
	bands := []float64{150, 300, 500, 800, 1200, 1800, 2500, 3400}
	nyq := float64(sampleRate) / 2
	out := bands[:0]
	for _, f := range bands {
		if f < nyq-100 {
			out = append(out, f)
		}
	}
	return out
}

// hannWindow returns the length-n Hann window used to reduce leakage
// between Goertzel bands. The caller computes it once per signal; the
// values (and therefore every downstream band level) are bit-identical
// to the previous per-sample inline computation.
func hannWindow(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5 - 0.5*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	return w
}

// bandLevels fills out with per-band log energies (dB) of a frame
// using Goertzel filters — a stdlib-only substitute for an FFT front
// end. Band powers below floor are clamped to it (energetic masking).
func bandLevels(out, frame, win []float64, sampleRate int, bands []float64, floor float64) {
	for i, f := range bands {
		p := goertzelPower(frame, win, f, sampleRate)
		if p < floor {
			p = floor
		}
		out[i] = 10 * math.Log10(p)
	}
}

// goertzelPower returns the normalized signal power at frequency f.
// win must be hannWindow(len(x)); the accumulation expression must
// stay exactly `v*win + coeff*s1 - s2` so the result is bit-identical
// to the pre-windowing-hoist code on every architecture.
func goertzelPower(x, win []float64, f float64, sampleRate int) float64 {
	w := 2 * math.Pi * f / float64(sampleRate)
	coeff := 2 * math.Cos(w)
	var s0, s1, s2 float64
	for i, v := range x {
		wv := win[i]
		s0 = v*wv + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	power := s1*s1 + s2*s2 - coeff*s1*s2
	return power / float64(len(x)*len(x))
}

func rms(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s / float64(len(x)))
}
