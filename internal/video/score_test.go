package video

import (
	"math"
	"testing"
	"time"

	"bufferqoe/internal/qoe"
	"bufferqoe/internal/testbed"
)

// TestSelfSSIMMatchesSSIM checks the cached self-SSIM of every frame
// of every clip and profile against qoe.SSIM of the frame with itself,
// bit for bit, on a cold and on a warm cache. Where the compiler does
// not fuse multiply-adds (amd64) every self-SSIM is exactly 1, so the
// test bites on the architectures where the cache matters.
func TestSelfSSIMMatchesSSIM(t *testing.T) {
	for _, clip := range Clips {
		for _, p := range []Profile{SD, HD} {
			src := NewSource(clip, p, 1)
			for pass := 0; pass < 2; pass++ {
				for f := 0; f < src.Frames(); f++ {
					ref := src.Frame(f)
					got, want := src.selfSSIM(f), qoe.SSIM(ref, ref, p.W, p.H)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s frame %d pass %d: SelfSSIM %v, SSIM %v", src, f, pass, got, want)
					}
				}
			}
		}
	}
}

// oracleDecode replays the pre-cache decoder over a finished stream:
// previous-frame slice concealment, then qoe.SSIM and qoe.PSNR
// (capped at 60 dB) on every decoded frame. It returns the decoded
// planes, which frames were impaired, and the means finish reports.
func oracleDecode(st *Stream) (decoded [][]uint8, impaired []bool, ssim, psnr []float64, meanSSIM, meanPSNR float64) {
	p := st.src.Profile
	n := st.src.Frames()
	prev := append([]uint8(nil), st.src.Frame(0)...)
	corrupt := make([]bool, p.Slices)
	var ssimSum, psnrSum float64
	for f := 0; f < n; f++ {
		ref := st.src.Frame(f)
		dec := make([]uint8, p.W*p.H)
		imp := false
		for s := 0; s < p.Slices; s++ {
			got := st.gotSlice[f][s]
			corrupt[s] = !(got && (f%p.GOP == 0 || !corrupt[s]))
			lo, hi := sliceRows(p, s)
			if corrupt[s] {
				imp = true
				copy(dec[lo*p.W:hi*p.W], prev[lo*p.W:hi*p.W])
			} else {
				copy(dec[lo*p.W:hi*p.W], ref[lo*p.W:hi*p.W])
			}
		}
		sv := qoe.SSIM(ref, dec, p.W, p.H)
		pv := qoe.PSNR(ref, dec)
		if pv > 60 {
			pv = 60
		}
		ssimSum += sv
		psnrSum += pv
		decoded = append(decoded, dec)
		impaired = append(impaired, imp)
		ssim = append(ssim, sv)
		psnr = append(psnr, pv)
		prev = dec
	}
	return decoded, impaired, ssim, psnr, ssimSum / float64(n), psnrSum / float64(n)
}

// TestLossyStreamScoresMatchFullReference streams over a congested
// access link and checks, frame by frame, that the decoder's scores —
// cached for unimpaired frames, computed for impaired ones — equal
// qoe.SSIM and qoe.PSNR of the decoded frame bit for bit, and that the
// reported means equal the full-reference means.
func TestLossyStreamScoresMatchFullReference(t *testing.T) {
	for _, p := range []Profile{SD, HD} {
		a := testbed.NewAccess(testbed.Config{BufferUp: 8, BufferDown: 16, Seed: 7})
		a.StartWorkload(testbed.MustSpec(testbed.LookupAccessScenario("long-few", testbed.DirDown)))
		a.Eng.RunFor(2 * time.Second)
		src := NewSource(ClipB, p, 2)
		var res *Result
		st := Start(a.MediaServer, a.MediaClient, src, Config{Smooth: true, Seed: 7}, func(r Result) { res = &r })
		a.Eng.RunFor(15 * time.Second)
		if res == nil {
			t.Fatalf("%s: no result", p.Name)
		}
		decoded, impaired, ssim, psnr, meanSSIM, meanPSNR := oracleDecode(st)
		nImpaired := 0
		for f := range decoded {
			if impaired[f] {
				nImpaired++
			}
			gs, gp := src.scoreFrame(f, decoded[f], impaired[f])
			if math.Float64bits(gs) != math.Float64bits(ssim[f]) || math.Float64bits(gp) != math.Float64bits(psnr[f]) {
				t.Fatalf("%s frame %d (impaired %v): scored %v/%v, full reference %v/%v",
					p.Name, f, impaired[f], gs, gp, ssim[f], psnr[f])
			}
		}
		if nImpaired == 0 || nImpaired == len(decoded) || res.FramesImpaired != nImpaired {
			t.Fatalf("%s: %d of %d frames impaired (result says %d); want a mix",
				p.Name, nImpaired, len(decoded), res.FramesImpaired)
		}
		if math.Float64bits(res.MeanSSIM) != math.Float64bits(meanSSIM) ||
			math.Float64bits(res.MeanPSNR) != math.Float64bits(meanPSNR) {
			t.Fatalf("%s: means %v/%v, full reference %v/%v", p.Name, res.MeanSSIM, res.MeanPSNR, meanSSIM, meanPSNR)
		}
	}
}
