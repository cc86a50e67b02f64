package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"bufferqoe"
)

// defaultSeed is the seed whose outputs are pinned in pins.json.
const defaultSeed = 1

// checkCell validates one cell's values: finite and in range (MOS in
// [1,5], SSIM in [0,1], PLT > 0). It returns "" when the cell is valid.
func checkCell(c bufferqoe.SweepCell) string {
	bad := func(what string, v float64) string {
		return fmt.Sprintf("%s/%s@%d: %s %v out of range", c.Scenario, c.Probe, c.Buffer, what, v)
	}
	inMOS := func(v float64) bool { return v >= 1 && v <= 5 }
	switch c.Metric {
	case "mos":
		if !inMOS(c.Value) {
			return bad("mos", c.Value)
		}
		if c.TalkRating != "" && !inMOS(c.TalkMOS) {
			return bad("talk mos", c.TalkMOS)
		}
	case "plt_s":
		if !(c.Value > 0) || math.IsInf(c.Value, 0) {
			return bad("plt_s", c.Value)
		}
	case "ssim":
		if !(c.Value >= 0 && c.Value <= 1) {
			return bad("ssim", c.Value)
		}
	default:
		return fmt.Sprintf("%s/%s@%d: unknown metric %q", c.Scenario, c.Probe, c.Buffer, c.Metric)
	}
	if !inMOS(c.MOS) {
		return bad("mapped mos", c.MOS)
	}
	return ""
}

// digestCells hashes cells exactly: labels plus the bit patterns of
// every float, in order. Equal digests mean bit-identical outputs.
func digestCells(cells []bufferqoe.SweepCell) string {
	h := sha256.New()
	var b [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, c := range cells {
		h.Write([]byte(c.Scenario + "\x00" + c.Probe + "\x00" + strconv.Itoa(c.Buffer) + "\x00" + c.Metric + "\x00"))
		f(c.Value)
		f(c.MOS)
		f(c.TalkMOS)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pin holds the exact outputs of one workload at defaultSeed. Zero
// count fields are not checked (the workload does not exercise them).
type pin struct {
	Digest     string `json:"digest"`
	SimEvents  uint64 `json:"sim_events"`
	Packets    uint64 `json:"packets"`
	Drops      uint64 `json:"bottleneck_drops"`
	Collisions uint64 `json:"mac_collisions"`
}

//go:embed pins.json
var embeddedPins []byte

// pinsJSON is the pin table in use (tests substitute their own).
var pinsJSON = embeddedPins

// loadPins parses the embedded pin table (workload name -> pin).
func loadPins() (map[string]pin, error) {
	var m map[string]pin
	if err := json.Unmarshal(pinsJSON, &m); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return m, nil
}

// checkDigest compares a run's digest with the pinned one when the
// run used defaultSeed; other seeds are checked for run-internal
// determinism by the callers instead.
func checkDigest(res *result, workload string, seed uint64, digest string) {
	if seed != defaultSeed {
		return
	}
	pins, err := loadPins()
	if err != nil {
		res.fail("%v", err)
		return
	}
	p, ok := pins[workload]
	if !ok || p.Digest == "" {
		res.fail("no digest pinned for workload %s", workload)
		return
	}
	if p.Digest != digest {
		res.fail("output digest %s differs from pinned %s", digest, p.Digest)
	}
}

// checkCounts compares exact simulated counts with the pins at
// defaultSeed (traced runs only: the counts come from telemetry).
func checkCounts(res *result, workload string, seed uint64, got pin) {
	if seed != defaultSeed {
		return
	}
	pins, err := loadPins()
	if err != nil {
		res.fail("%v", err)
		return
	}
	want := pins[workload]
	cmp := func(name string, w, g uint64) {
		if w != g {
			res.fail("pinned %s: got %d, want %d", name, g, w)
		}
	}
	cmp("sim_events", want.SimEvents, got.SimEvents)
	cmp("packets", want.Packets, got.Packets)
	cmp("bottleneck_drops", want.Drops, got.Drops)
	cmp("mac_collisions", want.Collisions, got.Collisions)
}
