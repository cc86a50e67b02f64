package experiments

import (
	"sync"
	"testing"

	"bufferqoe/internal/engine"
	"bufferqoe/internal/media"
	"bufferqoe/internal/testbed"
)

// TestSpeechCacheHoldsOnlyPlayedSamples is the memory regression test
// for per-sample speech caching: after a sweep of N distinct access
// VoIP scenarios at r repetitions (two buffer sizes each, which share
// a seed), every worker's speech cache holds at most N x min(2r, 20)
// samples — the ones the calls played — rather than N whole
// 20-sample libraries.
func TestSpeechCacheHoldsOnlyPlayedSamples(t *testing.T) {
	s := NewSession(2)
	var mu sync.Mutex
	var scratches []*CellScratch
	s.eng.SetScratch(func() engine.Scratch {
		cs := newCellScratch()
		mu.Lock()
		scratches = append(scratches, cs)
		mu.Unlock()
		return cs
	})
	o := tiny()
	o.Reps = 2
	scenarios := []string{"noBG", "short-few", "long-few"}
	var specs []ProbeSpec
	for _, sc := range scenarios {
		for _, buf := range []int{16, 128} {
			specs = append(specs, ProbeSpec{Scenario: sc, Direction: testbed.DirUp, Buffer: buf, Media: "voip"})
		}
	}
	if _, err := s.ProbeBatch(t.Context(), specs, o); err != nil {
		t.Fatal(err)
	}
	perScenario := min(2*o.Reps, media.LibrarySize)
	limit := len(scenarios) * perScenario
	union := map[speechKey]bool{}
	seeds := map[uint64]bool{}
	for i, cs := range scratches {
		if n := len(cs.speechCache); n > limit {
			t.Errorf("worker %d caches %d speech samples, want at most %d", i, n, limit)
		}
		for k := range cs.speechCache {
			union[k] = true
			seeds[k.seed] = true
			if k.index >= perScenario {
				t.Errorf("worker %d cached sample %d, but calls only play samples 0..%d", i, k.index, perScenario-1)
			}
		}
	}
	if len(seeds) != len(scenarios) || len(union) != limit {
		t.Fatalf("workers cached %d samples over %d seeds, want %d over %d",
			len(union), len(seeds), limit, len(scenarios))
	}
}
