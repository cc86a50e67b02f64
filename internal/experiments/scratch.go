package experiments

import (
	"bufferqoe/internal/engine"
	"bufferqoe/internal/media"
	"bufferqoe/internal/stats"
	"bufferqoe/internal/testbed"
	"bufferqoe/internal/video"
)

// CellScratch is the per-worker reusable working memory of the cell
// runners: the testbed's bottleneck monitors (mutable, Reset between
// cells) and two content caches — G.711 speech samples per (seed,
// sample index) and rendered video sources per (clip, profile,
// length). Synthesizing speech or rendering a clip costs far more
// than a small cell's network simulation, so reusing them across the
// cells of a sweep is one of the larger wins of the scratch design.
// Speech is cached per sample, not per 20-sample library: a cell
// synthesizes only the samples its calls play.
//
// Reuse safety: cache entries are pure functions of their key, so a
// cache hit is bit-identical to a rebuild. Consumers never write a
// speech sample or a source's frames; a Source's only mutable part
// is its lazily filled self-SSIM cache, itself a pure function of
// the frames, and a scratch serves one cell at a time. Everything
// else mutable lives behind Reset.
type CellScratch struct {
	// Testbed holds the queue/link monitors a testbed build would
	// otherwise allocate per cell, plus the cached testbed carcasses
	// NewAccess/NewBackbone reset in place between cells.
	Testbed testbed.Scratch

	// repSamples is a fixed arena of per-repetition accumulators for
	// the cell rep loops (MOS/SSIM/PLT per repetition). One cell runs
	// on a scratch at a time and no rep loop needs more than four, so
	// the backing arrays amortize across the whole sweep. Acquire via
	// sample(i), which resets before handing out.
	repSamples [4]stats.Sample

	speechCache map[speechKey]*media.Sample
	sources     map[sourceKey]*video.Source
}

type speechKey struct {
	seed  uint64
	index int
}

type sourceKey struct {
	clip    string
	profile string
	seconds int
}

func newCellScratch() *CellScratch {
	return &CellScratch{
		speechCache: map[speechKey]*media.Sample{},
		sources:     map[sourceKey]*video.Source{},
	}
}

// Reset implements engine.Scratch: clear the mutable state, keep the
// keyed content caches.
func (cs *CellScratch) Reset() {
	cs.Testbed.Reset()
}

// scratchOf narrows the engine's scratch handle; a nil result (no
// scratch configured, e.g. a cell function invoked directly in tests)
// makes every helper below fall back to fresh allocations.
func scratchOf(scr engine.Scratch) *CellScratch {
	cs, _ := scr.(*CellScratch)
	return cs
}

// sample returns the i-th arena accumulator, reset and ready to fill;
// a nil scratch (direct cell invocation in tests) falls back to a
// fresh allocation. The arena hands out at most len(repSamples)
// distinct accumulators per cell.
func (cs *CellScratch) sample(i int) *stats.Sample {
	if cs == nil {
		return &stats.Sample{}
	}
	s := &cs.repSamples[i]
	s.Reset()
	return s
}

// tb returns the testbed scratch to embed in a Config, or nil.
func (cs *CellScratch) tb() *testbed.Scratch {
	if cs == nil {
		return nil
	}
	return &cs.Testbed
}

// speech returns speech library sample i (wrapped modulo the
// library size) for a seed, cached across cells.
func (cs *CellScratch) speech(seed uint64, i int) *media.Sample {
	k := speechKey{seed: seed, index: i % media.LibrarySize}
	if cs == nil {
		return media.SpeechSample(seed, k.index)
	}
	if s, ok := cs.speechCache[k]; ok {
		return s
	}
	s := media.SpeechSample(seed, k.index)
	cs.speechCache[k] = s
	return s
}

// source returns the rendered video source for a clip/profile/length,
// cached across cells.
func (cs *CellScratch) source(clip video.Clip, p video.Profile, seconds int) *video.Source {
	if cs == nil {
		return video.NewSource(clip, p, seconds)
	}
	k := sourceKey{clip: clip.Name, profile: p.Name, seconds: seconds}
	if src, ok := cs.sources[k]; ok {
		return src
	}
	src := video.NewSource(clip, p, seconds)
	cs.sources[k] = src
	return src
}
