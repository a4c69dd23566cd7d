package main

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics computes every metric the run measured: the end-to-end set always,
// the per-layer set too, and the traced set when the traced pass ran.
// BENCHMARK.json selects which of them a run prints.
func (r *run) metrics() (map[string]metric, error) {
	p90, err := highPercentile(r.simMs, 90)
	if err != nil {
		return nil, fmt.Errorf("run_ms_p90: %w", err)
	}
	out := map[string]metric{
		"setup_s":           {median(r.setupS), "s"},
		"sweep_s":           {median(r.passS), "s"},
		"run_ms_p50":        {median(r.simMs), "ms"},
		"run_ms_p90":        {p90, "ms"},
		"sim_mcycles_per_s": {float64(r.cycles) / r.measured.Seconds() / 1e6, "Mcycle/s"},
		"alloc_mb_per_sim":  {float64(r.alloc) / float64(len(r.simMs)) / (1 << 20), "MiB"},
		"peak_rss_mb":       {r.peakRSS, "MiB"},

		"harness.worker_idle_frac": {median(r.idle), "fraction"},
	}
	if len(r.runMs) > 0 {
		build := r.buildMs
		if len(build) == 0 { // a loop builds only during set-up
			build = r.setupBuildMs
		}
		out["stamp.programs_ms"] = metric{median(r.programsMs), "ms"}
		out["harness.build_ms"] = metric{median(build), "ms"}
		out["cpu.reset_ms"] = metric{median(r.resetMs), "ms"}
		out["cpu.run_ms"] = metric{median(r.runMs), "ms"}
		out["sim.ns_per_event"] = metric{float64(r.runNs) / float64(r.runEvents), "ns"}
		out["cpu.run_alloc_kb"] = metric{float64(r.runAlloc) / float64(r.runCalls) / 1024, "KiB"}
	}
	for name, v := range exactCounts(r.firstResults()) {
		out[name] = v
	}
	if p := r.probe; p != nil && r.tracedN > 0 {
		traced := float64(r.tracedNs)
		var attributed uint64
		for _, ns := range p.ns {
			attributed += ns
		}
		for class, prefix := range map[string]string{
			"noc": "noc.", "l1": "coherence.l1_", "bank": "coherence.bank_", "core": "cpu.",
		} {
			out[prefix+"dispatch_ns"] = metric{ratio(float64(p.ns[class]), float64(p.n[class])), "ns"}
			out[prefix+"dispatch_share"] = metric{float64(p.ns[class]) / traced, "fraction"}
		}
		out["sim.closure_dispatch_share"] = metric{float64(p.ns["closure"]) / traced, "fraction"}
		out["sim.unattributed_share"] = metric{1 - float64(attributed)/traced, "fraction"}
		untracedMean := float64(r.runNs) / float64(r.runCalls)
		out["obs.trace_overhead_x"] = metric{traced / float64(r.tracedN) / untracedMean, "x"}
	}
	for name, m := range out {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s is %v", name, m.Value)
		}
	}
	return out, nil
}

// firstResults returns the first result of every distinct simulation, in
// pass order. A run whose results all fail their checks still reports the
// counts it got.
func (r *run) firstResults() []*stats.Run {
	var out []*stats.Run
	for _, s := range r.specs {
		if res := r.check.first[s.Key()]; res != nil {
			out = append(out, res)
		}
	}
	return out
}

// exactCounts summarizes the simulated outcome of one pass's distinct
// simulations. The values depend only on the seed and the model, so two
// builds of the same model must report them bit for bit.
func exactCounts(runs []*stats.Run) map[string]metric {
	var t stats.Traffic
	var events, fused, cycles, attempts, commits, aborts, lockRuns, sections uint64
	for _, r := range runs {
		t.Merge(&r.Traffic)
		events += r.EventsExecuted
		fused += r.FusedRuns
		cycles += r.ExecCycles
		n, _ := r.TotalAborts()
		aborts += n
		for _, c := range r.Cores {
			attempts += c.Attempts
			commits += c.Commits
			lockRuns += c.LockRuns
			sections += c.Sections
		}
	}
	n := float64(len(runs))
	commitRate := 1.0 // nothing speculative ran, as stats.Run.CommitRate
	if attempts > 0 {
		commitRate = float64(commits) / float64(attempts)
	}
	return map[string]metric{
		"sim.events_per_sim":               {float64(events) / n, "count"},
		"cpu.fused_runs_per_sim":           {float64(fused) / n, "count"},
		"cpu.sim_cycles_per_sim":           {float64(cycles) / n, "cycle"},
		"noc.messages_per_sim":             {float64(t.Messages) / n, "count"},
		"noc.flit_hops_per_sim":            {float64(t.FlitHops) / n, "count"},
		"noc.queue_wait_per_msg":           {ratio(float64(t.QueueWait), float64(t.Messages)), "cycle"},
		"coherence.l1_miss_rate":           {t.L1MissRate(), "fraction"},
		"coherence.dir_requests_per_sim":   {float64(t.DirRequests) / n, "count"},
		"coherence.llc_rejections_per_sim": {float64(t.LLCRejections) / n, "count"},
		"htm.commit_rate":                  {commitRate, "fraction"},
		"htm.aborts_per_commit":            {ratio(float64(aborts), float64(commits)), "abort/commit"},
		"htm.lock_runs_frac":               {ratio(float64(lockRuns), float64(sections)), "fraction"},
		"htm.switch_grant_frac":            {ratio(float64(t.SwitchGrants), float64(t.SwitchTries)), "fraction"},
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
