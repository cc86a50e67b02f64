package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// sharePackages are the layers the CPU-share table reports: the
// internal packages by name, "facade" (package bufferqoe), "main" (the
// profiled binary's own package), encoding/json, net/http, math and
// the Go runtime. Samples whose leaf function lives anywhere else count as
// "other".
var sharePackages = []string{
	"sim", "netem", "tcp", "mac", "qoe", "media", "video", "harpoon",
	"voip", "web", "testbed", "experiments", "engine", "store",
	"facade", "main", "json", "http", "math", "runtime", "other",
}

// cpuShares writes a pprof CPU profile to dir, has `go tool pprof` (of
// the toolchain on PATH, which run.sh builds with) list the flat
// (leaf-frame, inlined frames resolved) time of every function, and
// returns, per layer of sharePackages, the fraction of sampled CPU time
// spent in that package.
func cpuShares(profile []byte, dir string) (map[string]float64, error) {
	path := filepath.Join(dir, "cpu.pprof")
	if err := os.WriteFile(path, profile, 0o644); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-unit=ns", path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+dir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	top, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return sharesOfTop(top)
}

// sharesOfTop groups the flat column of `pprof -top -unit=ns` output
// by layer.
func sharesOfTop(top []byte) (map[string]float64, error) {
	byPkg := map[string]float64{}
	total := 0.0
	inTable := false
	sc := bufio.NewScanner(bytes.NewReader(top))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			return nil, fmt.Errorf("pprof -top: unexpected line %q", sc.Text())
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top: flat %q: %v", f[0], err)
		}
		total += v
		byPkg[layerOf(strings.Join(f[5:], " "))] += v
	}
	if !inTable {
		return nil, fmt.Errorf("pprof -top: no table in %q", top)
	}
	out := map[string]float64{}
	for _, pkg := range sharePackages {
		out[pkg] = 0
		if total > 0 {
			out[pkg] = byPkg[pkg] / total
		}
	}
	return out, nil
}

// layerOf maps a symbol such as "bufferqoe/internal/sim.(*Engine).siftDown"
// or "runtime.mallocgc" to its sharePackages entry.
func layerOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	pkg := fn
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"),
		!strings.Contains(fn, "."): // assembly routines such as aeshashbody
		return "runtime"
	case pkg == "math":
		return "math"
	case pkg == "bufferqoe":
		return "facade"
	case pkg == "main":
		return "main"
	case pkg == "encoding/json":
		return "json"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "http"
	}
	if rest, ok := strings.CutPrefix(pkg, "bufferqoe/internal/"); ok {
		for _, l := range sharePackages {
			if rest == l {
				return l
			}
		}
	}
	return "other"
}
