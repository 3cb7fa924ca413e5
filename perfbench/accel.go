package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/sim"
)

// asGraph generates the As stand-in (Chung–Lu, 2,000 vertices, 13,000
// edges, exponent 2.3) under the workload seed.
func asGraph(cfg config) *graph.Graph {
	if cfg.tiny {
		return graph.ChungLu(200, 1000, 2.3, genSeed(0xA5, cfg.seed))
	}
	return graph.ChungLu(2000, 13000, 2.3, genSeed(0xA5, cfg.seed))
}

// simCase is one simulator run of a round.
type simCase struct {
	name string
	g    *graph.Graph
	pl   *plan.Plan
	pes  int
	want []int64 // core.Mine's counts on the same plan and graph
}

// runAccel measures the cycle-level simulator on three runs per round:
// diamond on Lj at 20 PEs, the 3-motif census on As at 64 PEs, and
// triangles on the oriented Lj at 20 PEs. Every simulated count must equal
// the CPU engine's, computed once, untimed.
func runAccel(cfg config, tr *tracer) (*sample, error) {
	s := newSample()
	var cases []simCase
	for i := 0; i < setupReps; i++ {
		id := tr.begin("bench.setup", 0)
		t := time.Now()
		var lj, as, ljo *graph.Graph
		gen := timed(tr, "graph.gen", id, func() { lj, as = ljGraph(cfg), asGraph(cfg) })
		orient := timed(tr, "graph.orient", id, func() { ljo = lj.Orient() })
		var diamond, motifs, tri *plan.Plan
		var errs [3]error
		compile := timed(tr, "plan.compile", id, func() {
			diamond, errs[0] = plan.Compile(pattern.Diamond(), plan.Options{})
			motifs, errs[1] = plan.CompileMotifs(3, plan.Options{})
			tri, errs[2] = plan.CompileCliqueDAG(3)
		})
		s.setupS = append(s.setupS, time.Since(t).Seconds())
		tr.end(id)
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		s.layer["graph.gen_ms"] = ms(gen)
		s.layer["graph.orient_ms"] = ms(orient)
		s.layer["plan.compile_ms"] = ms(compile)
		s.layer["graph.csr_bytes"] = float64(csrBytes(lj) + csrBytes(as) + csrBytes(ljo))
		cases = []simCase{
			{name: "diamond/Lj", g: lj, pl: diamond, pes: 20},
			{name: "3-motif/As", g: as, pl: motifs, pes: 64},
			{name: "triangle/Lj-oriented", g: ljo, pl: tri, pes: 20},
		}
	}
	for i := range cases {
		c := &cases[i]
		res, err := core.Mine(c.g, c.pl, core.Options{})
		if err != nil {
			return nil, err
		}
		c.want = res.Counts
		s.counters["plan.ops"] += int64(planOps(c.pl))
		s.counters["plan.aux_specs"] += int64(len(c.pl.AuxSpecs))
	}
	if cfg.corruptReference {
		cases[0].want[0]++
	}
	s.counters["graph.csr_bytes"] = int64(s.layer["graph.csr_bytes"])

	var first map[string]int64
	var firstStats sim.Stats
	var host time.Duration
	start := time.Now()
	for more(start, s.opMs, cfg.seconds) {
		round := tr.begin("bench.round", 0)
		t := time.Now()
		var sum sim.Stats
		var pesCycles int64
		counters := map[string]int64{}
		for _, c := range cases {
			var res sim.Result
			var err error
			timed(tr, "sim.simulate", round, func() {
				res, err = sim.Simulate(c.g, c.pl, sim.DefaultConfig().WithPEs(c.pes))
			})
			if err != nil {
				return nil, err
			}
			s.attempted++
			if !equalCounts(res.Counts, c.want) {
				s.failed++
				s.fail("simulator %s counts %v, CPU engine %v", c.name, res.Counts, c.want)
			}
			addSimStats(&sum, res.Stats)
			pesCycles += int64(c.pes) * res.Stats.Cycles
			for i, n := range res.Counts {
				counters[fmt.Sprintf("count.%s.%d", c.name, i)] = n
			}
		}
		d := time.Since(t)
		host += d
		s.opMs = append(s.opMs, ms(d))
		tr.end(round)
		simCounters(counters, sum)
		counters["sim.pe_cycles"] = pesCycles
		if first == nil {
			first, firstStats = counters, sum
		} else {
			s.wrong = append(s.wrong, driftBetween(fmt.Sprintf("simulator rounds 1 and %d", len(s.opMs)), first, counters)...)
		}
	}
	rounds := float64(len(s.opMs))
	s.opsPerS = rounds / time.Since(start).Seconds()
	for k, v := range first {
		s.counters[k] = v
		s.layer[k] = float64(v)
	}
	s.layer["sim.utilization"] = ratio(firstStats.BusyCycles, first["sim.pe_cycles"])
	s.layer["sim.l2_hit_rate"] = ratio(firstStats.L2Hits, firstStats.L2Hits+firstStats.L2Misses)
	s.layer["sim.cmap_hit_rate"] = ratio(firstStats.CMap.Hits, firstStats.CMap.Lookups)
	perRound := float64(host.Nanoseconds()) / rounds
	s.layer["sim.host_ns_per_cycle"] = perRound / float64(max(first["sim.cycles"], 1))
	s.layer["sim.host_ns_per_extension"] = perRound / float64(max(first["sim.extensions"], 1))
	return s, nil
}

func equalCounts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// addSimStats sums the simulated counters of several runs; Cycles sums the
// runs' makespans.
func addSimStats(dst *sim.Stats, s sim.Stats) {
	dst.Cycles += s.Cycles
	dst.Tasks += s.Tasks
	dst.Extensions += s.Extensions
	dst.NoCRequests += s.NoCRequests
	dst.DRAMAccesses += s.DRAMAccesses
	dst.L2Hits += s.L2Hits
	dst.L2Misses += s.L2Misses
	dst.SIUIters += s.SIUIters
	dst.SDUIters += s.SDUIters
	dst.CMap.Add(s.CMap)
	dst.BusyCycles += s.BusyCycles
	dst.Breakdown.Add(s.Breakdown)
}

// simCounters copies the simulated counters into m under their metric
// names.
func simCounters(m map[string]int64, st sim.Stats) {
	m["sim.cycles"] = st.Cycles
	m["sim.tasks"] = st.Tasks
	m["sim.extensions"] = st.Extensions
	m["sim.noc_requests"] = st.NoCRequests
	m["sim.dram_accesses"] = st.DRAMAccesses
	m["sim.cmap_probes"] = st.CMap.Probes
	m["sim.siu_iters"] = st.SIUIters
	m["sim.sdu_iters"] = st.SDUIters
	m["sim.busy_cycles"] = st.BusyCycles
	m["sim.l2_hits"] = st.L2Hits
	m["sim.cmap_hits"] = st.CMap.Hits
	m["sim.breakdown.compute"] = st.Breakdown.Compute
	m["sim.breakdown.cmap_probe"] = st.Breakdown.CMapProbe
	m["sim.breakdown.l1_stall"] = st.Breakdown.L1Stall
	m["sim.breakdown.l2_stall"] = st.Breakdown.L2Stall
	m["sim.breakdown.dram_stall"] = st.Breakdown.DRAMStall
	m["sim.breakdown.dispatch_wait"] = st.Breakdown.DispatchWait
	m["sim.breakdown.idle"] = st.Breakdown.Idle
}
