package main

import (
	"runtime"
	"sync"

	"secmon/internal/core"
)

// perLayer lists every per-layer metric and its unit, in the order
// BENCHMARK.json declares them. A traced run prints all of them on every
// workload; a layer the workload does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"lp.iterations_per_solve", "count"},
	{"lp.warm_hit_ratio", "ratio"},
	{"lp.cold_solves_per_solve", "count"},
	{"lp.refactorizations_per_solve", "count"},
	{"lp.updates_per_solve", "count"},
	{"lp.bound_flips_per_solve", "count"},
	{"lp.factor_nnz_max", "count"},
	{"lp.kernel_fallbacks", "count"},
	{"ilp.nodes_per_solve", "count"},
	{"ilp.cuts_added_per_solve", "count"},
	{"ilp.presolve_fixed_per_solve", "count"},
	{"ilp.worker_node_spread", "ratio"},
	{"core.solve_ms", "ms"},
	{"decomp.solve_ms", "ms"},
	{"decomp.subproblem_solves", "count"},
	{"decomp.oracle_fallbacks", "count"},
	{"model.index_ms", "ms"},
	{"server.request_ms.optimize", "ms"},
	{"server.request_ms.sweep", "ms"},
	{"server.request_ms.simulate", "ms"},
	{"server.request_ms.mutate", "ms"},
	{"server.request_ms.miss", "ms"},
	{"server.request_ms.hit", "ms"},
	{"server.request_ms.coalesced", "ms"},
	{"server.request_ms.partial", "ms"},
	{"server.solves_per_request", "count"},
	{"server.cache_hits_per_request", "count"},
	{"server.coalesced_per_request", "count"},
	{"server.queued", "count"},
	{"state.replay_s", "s"},
	{"state.mutate_ms", "ms"},
	{"state.shortcut_ratio", "ratio"},
	{"state.log_bytes_per_batch", "bytes"},
	{"campaign.run_ms", "ms"},
	{"campaign.events_per_s", "1/s"},
	{"campaign.trials_per_s", "1/s"},
	{"campaign.analytic_ms", "ms"},
	{"campaign.deltas_per_round", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
}

// solverTally sums core.SolveStats over the solves of a traced phase, for
// the lp, ilp and decomp per-layer metrics. Safe for concurrent use.
type solverTally struct {
	mu                                      sync.Mutex
	solves                                  int
	iters, warmAttempts, warmHits, cold     int
	refacs, updates, flips, nnzMax, fallbks int
	nodes, cuts, presolveFixed              int
	workerNodes                             []int
	decomposed                              int
	decompSubproblems, decompOracle         int
}

func (t *solverTally) add(st *core.SolveStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.solves++
	t.iters += st.LPIterations
	t.warmAttempts += st.WarmAttempts
	t.warmHits += st.WarmHits
	t.cold += st.ColdSolves
	t.refacs += st.Refactorizations
	t.updates += st.Updates
	t.flips += st.BoundFlips
	t.nnzMax = max(t.nnzMax, st.FactorNnz)
	t.fallbks += st.KernelFallbacks
	t.nodes += st.Nodes
	t.cuts += st.CutsAdded
	t.presolveFixed += st.PresolveFixed
	for i, w := range st.PerWorker {
		for len(t.workerNodes) <= i {
			t.workerNodes = append(t.workerNodes, 0)
		}
		t.workerNodes[i] += w.Nodes
	}
	if d := st.Decomposition; d != nil {
		t.decomposed++
		t.decompSubproblems += d.SubproblemSolves
		t.decompOracle += d.OracleFallbacks
	}
}

// fill writes the lp, ilp and decomp counters into m: per solve, or per
// decomposed solve for decomp.
func (t *solverTally) fill(m map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.solves == 0 {
		return
	}
	per := func(v int) float64 { return float64(v) / float64(t.solves) }
	m["lp.iterations_per_solve"] = per(t.iters)
	if t.warmAttempts > 0 {
		m["lp.warm_hit_ratio"] = float64(t.warmHits) / float64(t.warmAttempts)
	}
	m["lp.cold_solves_per_solve"] = per(t.cold)
	m["lp.refactorizations_per_solve"] = per(t.refacs)
	m["lp.updates_per_solve"] = per(t.updates)
	m["lp.bound_flips_per_solve"] = per(t.flips)
	m["lp.factor_nnz_max"] = float64(t.nnzMax)
	m["lp.kernel_fallbacks"] = float64(t.fallbks)
	m["ilp.nodes_per_solve"] = per(t.nodes)
	m["ilp.cuts_added_per_solve"] = per(t.cuts)
	m["ilp.presolve_fixed_per_solve"] = per(t.presolveFixed)
	m["ilp.worker_node_spread"] = nodeSpread(t.workerNodes)
	if t.decomposed > 0 {
		m["decomp.subproblem_solves"] = float64(t.decompSubproblems) / float64(t.decomposed)
		m["decomp.oracle_fallbacks"] = float64(t.decompOracle) / float64(t.decomposed)
	}
}

// nodeSpread is the ratio of the busiest worker's branch-and-bound nodes to
// the idlest one's, summed over the phase; 1 is perfect balance. An idle
// worker counts as one node so the ratio stays finite.
func nodeSpread(perWorker []int) float64 {
	if len(perWorker) == 0 {
		return 0
	}
	hi, lo := perWorker[0], perWorker[0]
	for _, n := range perWorker[1:] {
		hi, lo = max(hi, n), min(lo, n)
	}
	return float64(hi) / float64(max(lo, 1))
}

// memMark is a runtime.MemStats reading for the runtime per-layer metrics.
type memMark struct{ alloc, gc uint64 }

func readMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{alloc: ms.TotalAlloc, gc: uint64(ms.NumGC)}
}

// fillRuntime writes the allocation and GC rates between two marks.
func fillRuntime(m map[string]float64, a, b memMark, ops int) {
	if ops == 0 {
		return
	}
	m["runtime.alloc_mb_per_op"] = float64(b.alloc-a.alloc) / 1e6 / float64(ops)
	m["runtime.gc_cycles_per_op"] = float64(b.gc-a.gc) / float64(ops)
}
