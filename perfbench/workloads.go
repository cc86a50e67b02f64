package main

import (
	"io"
	"sort"
	"strings"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(config, io.Writer) (*result, error){
	"access-media": sweepRunner(accessMedia),
	"bulk-flows":   sweepRunner(bulkFlows),
	"serve-mixed":  runServeMixed,
}

func sweepRunner(w sweepWorkload) func(config, io.Writer) (*result, error) {
	return func(cfg config, out io.Writer) (*result, error) {
		if cfg.trace {
			return runSweepTraced(w, cfg, out)
		}
		return runSweepWorkload(w, cfg, out)
	}
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
