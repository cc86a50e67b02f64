package qoe

// This file keeps a verbatim copy of SpeechQuality and its helpers as
// they were before untouched frames skipped band analysis (only the
// names carry an "oracle" prefix). speech_identity_test.go compares
// the production estimator against it bit for bit.

import "math"

func oracleSpeechQuality(ref, deg []float64, sampleRate int) float64 {
	n := len(ref)
	if len(deg) < n {
		n = len(deg)
	}
	frame := sampleRate / 50 // 20 ms
	if frame == 0 || n < frame {
		return 1
	}
	bands := oracleSpeechBands(sampleRate)
	// One Hann window and two band-level buffers per call, shared by
	// every frame: the per-sample cosine used to dominate the CPU
	// profile (it was recomputed per band, per signal, per frame) and
	// the per-frame level slices dominated the allocation profile.
	win := oracleHannWindow(frame)
	lr := make([]float64, len(bands))
	ld := make([]float64, len(bands))

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
		eRef := oracleRMS(rf)
		eDeg := oracleRMS(df)
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
		oracleBandLevels(lr, rf, win, sampleRate, bands, floor)
		oracleBandLevels(ld, df, win, sampleRate, bands, floor)
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

// oracleSpeechBands returns the analysis band center frequencies, roughly
// mel-spaced over the telephony band.
func oracleSpeechBands(sampleRate int) []float64 {
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

// oracleHannWindow returns the length-n Hann window used to reduce leakage
// between Goertzel bands. The caller computes it once per signal; the
// values (and therefore every downstream band level) are bit-identical
// to the previous per-sample inline computation.
func oracleHannWindow(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5 - 0.5*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	return w
}

// oracleBandLevels fills out with per-band log energies (dB) of a frame
// using Goertzel filters — a stdlib-only substitute for an FFT front
// end. Band powers below floor are clamped to it (energetic masking).
func oracleBandLevels(out, frame, win []float64, sampleRate int, bands []float64, floor float64) {
	for i, f := range bands {
		p := oracleGoertzelPower(frame, win, f, sampleRate)
		if p < floor {
			p = floor
		}
		out[i] = 10 * math.Log10(p)
	}
}

// oracleGoertzelPower returns the normalized signal power at frequency f.
// win must be oracleHannWindow(len(x)); the accumulation expression must
// stay exactly `v*win + coeff*s1 - s2` so the result is bit-identical
// to the pre-windowing-hoist code on every architecture.
func oracleGoertzelPower(x, win []float64, f float64, sampleRate int) float64 {
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

func oracleRMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s / float64(len(x)))
}
