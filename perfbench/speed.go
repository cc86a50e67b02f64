package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// The machine this benchmark runs on is shared: its speed for a given
// piece of code changes by up to a factor of two from one run to the
// next, which no median inside one run removes. So each untraced run
// also times a fixed probe, made of the benchmark's own code and none
// of the program's, in a pause right before each unit of timed work (a
// set-up, a sweep, a part's reads, a window of the server loop). The
// run's speed factor k is how many times slower than probeRefMS the
// probes ran, averaged over its pauses, and the run reports its times
// divided by k and its rates multiplied by k: what they would have been
// at the reference speed. The raw values and the spread of k are
// printed on # lines. A change to the program cannot move the probe.
const (
	// probeRefMS is the probe time the reported metrics are scaled to,
	// close to what one probe takes on a quiet 2-vCPU Xeon VM.
	probeRefMS = 20.0
	// probeThreads run the probe at once, as many as the sweeps have
	// workers, so it samples every core the measured work runs on; a
	// probe's time is the mean of the threads' own times, so a thread
	// that starts late does not count.
	probeThreads = sweepWorkers
	// probesPerPause are the probes taken in each pause.
	probesPerPause = 3
	// probeSteps and probeHeap size one thread's probe: heap pushes and
	// pops (the simulator's event queue does the same), each with a
	// scattered update of a table. Heap and table fit the per-core
	// caches: a probe that missed them followed the program's speed
	// less closely.
	probeSteps      = 330_000
	probeHeap       = 4096
	probeTableWords = 4096
)

// speedMeter takes the probes of one run.
type speedMeter struct {
	ks     []float64 // factor of each pause
	heaps  [probeThreads][]uint64
	tables [probeThreads][]uint64
	sink   [probeThreads]uint64
}

func newSpeedMeter() *speedMeter {
	m := &speedMeter{}
	for i := range probeThreads {
		m.heaps[i] = make([]uint64, 0, probeHeap)
		m.tables[i] = make([]uint64, probeTableWords)
	}
	return m
}

// pause collects the heap, so the garbage of the work before it is not
// collected during the probes or the unit after them, then times
// probesPerPause probes and records the pause's factor, by their
// median. A nil meter (traced runs) only collects the heap.
func (m *speedMeter) pause() {
	runtime.GC()
	if m == nil {
		return
	}
	var probes []float64
	for range probesPerPause {
		var wg sync.WaitGroup
		var took [probeThreads]time.Duration
		for i := range probeThreads {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				m.sink[i] += probeWork(m.heaps[i][:0], m.tables[i], uint64(i)+1)
				took[i] = time.Since(t0)
			}()
		}
		wg.Wait()
		sum := 0.0
		for _, d := range took {
			sum += ms(d)
		}
		probes = append(probes, sum/probeThreads)
	}
	m.ks = append(m.ks, median(probes)/probeRefMS)
}

// factor is the run's speed factor: the mean of the pauses' factors
// without the lowest and highest tenth.
func (m *speedMeter) factor() float64 {
	ks := append([]float64(nil), m.ks...)
	sort.Float64s(ks)
	cut := len(ks) / 10
	return mean(ks[cut : len(ks)-cut])
}

// toReference rescales res's times (units s and ms) and rates (units
// ending in /s) by the run's speed factor, and prints the factor's
// spread and the raw values.
func (m *speedMeter) toReference(res *result, out io.Writer) {
	k := m.factor()
	fmt.Fprintf(out, "# speed factor k %.4f: trimmed mean of %d pauses (quartiles %.4f, %.4f; range %.4f-%.4f), reference probe %.0f ms\n",
		k, len(m.ks), quantile(m.ks, 0.25), quantile(m.ks, 0.75), quantile(m.ks, 0), quantile(m.ks, 1), probeRefMS)
	for _, n := range sortedKeys(res.Metrics) {
		v := res.Metrics[n]
		switch {
		case v.Unit == "s" || v.Unit == "ms":
			res.set(n, v.Value/k, v.Unit)
		case strings.HasSuffix(v.Unit, "/s"):
			res.set(n, v.Value*k, v.Unit)
		default:
			continue
		}
		fmt.Fprintf(out, "# raw %-30s %16.6f %s\n", n, v.Value, v.Unit)
	}
}

// probeWork pushes probeSteps pseudo-random keys through a binary
// min-heap of at most cap(h) entries and adds each key into a
// scattered word of table. It returns the sum of the popped keys.
func probeWork(h, table []uint64, seed uint64) uint64 {
	x, sum := seed, uint64(0)
	for range probeSteps {
		x = x*6364136223846793005 + 1442695040888963407
		table[(x>>40)%uint64(len(table))] += x
		if len(h) == cap(h) {
			sum += h[0]
			last := len(h) - 1
			h[0] = h[last]
			h = h[:last]
			for i := 0; ; {
				c := 2*i + 1
				if c >= len(h) {
					break
				}
				if c+1 < len(h) && h[c+1] < h[c] {
					c++
				}
				if h[i] <= h[c] {
					break
				}
				h[i], h[c] = h[c], h[i]
				i = c
			}
		}
		h = append(h, x)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p] <= h[i] {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	return sum
}
