package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/harness"
)

// goldenMain prints golden.json for the current model: every simulation of
// every workload at goldenSeed, each run once on a fresh machine.
// Regenerate the file only for a change that is meant to alter simulated
// behaviour:
//
//	bash bench/run.sh golden > bench/golden.json
func goldenMain() int {
	g := goldenFile{Seed: goldenSeed, Digests: map[string]map[string]string{}}
	for _, w := range workloads {
		digests := map[string]string{}
		for _, seed := range w.seedsFor(goldenSeed) {
			for _, s := range w.specs(seed) {
				res, err := harness.Execute(s)
				if err == nil {
					err = outcomeErr(s, res)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: golden: %v\n", err)
					return 1
				}
				digests[s.Key()] = digest(res)
			}
		}
		g.Digests[w.name] = digests
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("%s\n", out)
	return 0
}
