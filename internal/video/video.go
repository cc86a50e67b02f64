// Package video models the paper's IPTV measurement application
// (Section 8): H.264-style slice-structured video streamed over
// RTP/UDP in MPEG2-TS-sized packets, with VLC-style send-rate
// smoothing, a receiver that decodes with previous-frame slice
// concealment, and full-reference SSIM/PSNR evaluation of the decoded
// frames.
//
// Substitution note: the paper's three reference clips (interview,
// soccer, movie) are modeled as procedurally generated luma sequences
// with matching motion/detail classes, at reduced pixel resolution.
// The *network* bitrates stay at the paper's 4 Mbit/s (SD) and
// 8 Mbit/s (HD), so the testbed sees identical traffic; the pixel
// planes only feed the quality metrics, for which slice-loss artifact
// geometry (fraction of frame area frozen, propagation until the next
// I-frame) is what drives SSIM — preserved by the model.
package video

import (
	"fmt"
	"math"

	"bufferqoe/internal/qoe"
	"bufferqoe/internal/sim"
)

// Profile describes an encoding ladder entry.
type Profile struct {
	Name string
	// W, H are the luma plane dimensions used for quality evaluation.
	W, H int
	// Bitrate is the stream's network bitrate in bits/s.
	Bitrate float64
	// FPS is the frame rate; GOP the I-frame period in frames.
	FPS, GOP int
	// Slices per frame (the paper encodes 32 slices to localize
	// errors).
	Slices int
}

// SD and HD are the paper's two encoding profiles.
var (
	SD = Profile{Name: "SD", W: 128, H: 96, Bitrate: 4e6, FPS: 25, GOP: 25, Slices: 32}
	HD = Profile{Name: "HD", W: 192, H: 144, Bitrate: 8e6, FPS: 25, GOP: 25, Slices: 32}
)

// Clip describes reference content. Motion controls how different
// consecutive frames are (and therefore how visible freeze
// concealment is); Detail controls spatial texture energy.
type Clip struct {
	Name   string
	Motion float64
	Detail float64
	Seed   uint64
}

// The paper's three content classes.
var (
	ClipA = Clip{Name: "A-interview", Motion: 0.2, Detail: 0.5, Seed: 101}
	ClipB = Clip{Name: "B-soccer", Motion: 0.9, Detail: 0.8, Seed: 102}
	ClipC = Clip{Name: "C-movie", Motion: 0.5, Detail: 0.6, Seed: 103}
)

// Clips lists the reference content in paper order.
var Clips = []Clip{ClipA, ClipB, ClipC}

// Source renders the frames of one (clip, profile) pair once, so
// repeated runs don't re-synthesize content. It also caches each
// frame's self-SSIM, filled on first use; a Source is therefore not
// safe for concurrent streams on different goroutines.
type Source struct {
	Clip    Clip
	Profile Profile
	frames  [][]uint8

	// self[t] is qoe.SSIM(Frame(t), Frame(t)), valid once
	// selfKnown[t] is set.
	self      []float64
	selfKnown []bool
}

// NewSource creates a frame source for the given duration in seconds.
func NewSource(clip Clip, p Profile, seconds int) *Source {
	s := &Source{Clip: clip, Profile: p}
	n := seconds * p.FPS
	s.frames = make([][]uint8, n)
	for t := 0; t < n; t++ {
		s.frames[t] = renderFrame(clip, p, t)
	}
	return s
}

// Frames returns the number of frames.
func (s *Source) Frames() int { return len(s.frames) }

// Frame returns the t-th reference luma plane.
func (s *Source) Frame(t int) []uint8 { return s.frames[t] }

// selfSSIM returns qoe.SSIM(Frame(t), Frame(t)), computed on first use
// and cached: the score of a frame that decoded without loss. It is
// cached rather than taken to be 1, because the algebra gives exactly
// 1 only where the compiler does not fuse multiply-adds; calling SSIM
// on the same bytes is bit-identical on every architecture.
func (s *Source) selfSSIM(t int) float64 {
	if s.self == nil {
		s.self = make([]float64, len(s.frames))
		s.selfKnown = make([]bool, len(s.frames))
	}
	if !s.selfKnown[t] {
		f := s.frames[t]
		s.self[t] = qoe.SSIM(f, f, s.Profile.W, s.Profile.H)
		s.selfKnown[t] = true
	}
	return s.self[t]
}

// renderFrame procedurally generates a luma plane: moving sinusoidal
// structure (global pan driven by Motion) over a static texture field
// (Detail), with a roaming high-contrast blob standing in for
// foreground objects.
func renderFrame(c Clip, p Profile, t int) []uint8 {
	out := make([]uint8, p.W*p.H)
	// Global pan in pixels/frame.
	pan := c.Motion * 3 * float64(t)
	// Blob path.
	bx := float64(p.W)/2 + float64(p.W)/3*math.Sin(0.05*float64(t)*(0.5+c.Motion))
	by := float64(p.H)/2 + float64(p.H)/3*math.Cos(0.04*float64(t)*(0.5+c.Motion))
	texRng := sim.NewRNG(c.Seed, "texture")
	// Static texture: a small tileable noise table.
	const texN = 64
	tex := make([]float64, texN*texN)
	for i := range tex {
		tex[i] = texRng.Float64()*2 - 1
	}
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			fx, fy := float64(x), float64(y)
			v := 128.0
			v += 45 * math.Sin(2*math.Pi*(fx+pan)/37) * math.Cos(2*math.Pi*(fy+0.5*pan)/29)
			v += c.Detail * 30 * tex[(y%texN)*texN+x%texN]
			d := math.Hypot(fx-bx, fy-by)
			if d < float64(p.H)/6 {
				v += 70 * (1 - d/(float64(p.H)/6))
			}
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			out[y*p.W+x] = uint8(v)
		}
	}
	return out
}

// sliceRows returns the row range [lo, hi) covered by slice s.
func sliceRows(p Profile, s int) (lo, hi int) {
	lo = s * p.H / p.Slices
	hi = (s + 1) * p.H / p.Slices
	return lo, hi
}

// FrameBytes returns the encoded size of frame t, allocating the GOP
// byte budget with a 3x weight on I-frames and content-dependent
// jitter (encoding-efficiency differences between clips, Section 8.3).
func FrameBytes(c Clip, p Profile, t int, rng *sim.RNG) int {
	gopBytes := p.Bitrate / 8 * float64(p.GOP) / float64(p.FPS)
	unit := gopBytes / float64(3+p.GOP-1)
	base := unit
	if t%p.GOP == 0 {
		base = 3 * unit
	}
	jitter := 1 + (rng.Float64()*2-1)*0.25*c.Detail
	n := int(base * jitter)
	if n < 200 {
		n = 200
	}
	return n
}

// String identifies a source for logs.
func (s *Source) String() string {
	return fmt.Sprintf("%s/%s", s.Clip.Name, s.Profile.Name)
}
