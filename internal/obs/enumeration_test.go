package obs_test

// Registry-side field-enumeration drift test: pins the exact counter names
// AddStats derives from every Stats struct the CLIs export. Adding a field
// to core.Stats, sim.Stats, cmap.Stats, or bench.Table2Row fails this test
// until the expectation here — and the golden metrics artifacts — are
// updated, so no field can land without an explicit registration decision.
// (The statsum lint guarantees Add/Merge coverage; this guarantees export
// coverage.)

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/cmap"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/sim"
)

var cmapMetricNames = []string{
	"hits", "inserts", "lookups", "overflows", "probes", "removes",
}

var coreStatsMetricNames = []string{
	"aux_built", "aux_bytes_peak", "aux_reused", "aux_skipped_cost_model",
	"bitmap_probes",
	"candidates",
	"extensions",
	"frontier_reuses",
	"gallop_probes",
	"leaf_counts_skipped_materialize",
	"set_op_iterations",
	"tasks",
}

var simStatsMetricNames = []string{
	// The cycle-accounting buckets (PR5). Per-channel slices and derived
	// utilization floats live in Stats too but are deliberately absent here:
	// AddStats exports only scalar ints, and the slices reach artifacts
	// through the timeseries sampler instead.
	"breakdown.c_map_probe", "breakdown.compute", "breakdown.dispatch_wait",
	"breakdown.dram_stall", "breakdown.idle", "breakdown.l1_stall",
	"breakdown.l2_stall",
	"busy_cycles",
	"c_map.hits", "c_map.inserts", "c_map.lookups",
	"c_map.overflows", "c_map.probes", "c_map.removes",
	"cycles",
	"dram_accesses",
	"dram_busy_cycles",
	"extensions",
	"l1_hits", "l1_misses",
	"l2_busy_cycles",
	"l2_hits", "l2_misses",
	"no_c_requests",
	"sdu_iters",
	"siu_iters",
	"stall_cycles",
	"tasks",
}

func prefixed(prefix string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = prefix + "." + n
	}
	return out
}

func TestRegisteredMetricEnumeration(t *testing.T) {
	cases := []struct {
		label string
		stats any
		want  []string
	}{
		{"cmap.Stats", cmap.Stats{}, prefixed("p", cmapMetricNames)},
		{"core.Stats", core.Stats{}, prefixed("p", coreStatsMetricNames)},
		{"sim.Stats", sim.Stats{}, prefixed("p", simStatsMetricNames)},
		{"bench.Table2Row", bench.Table2Row{}, func() []string {
			// The row embeds both baselines' engine stats plus its own
			// schedule-invariant scalars; wall-clock seconds and the
			// App/Dataset labels must NOT appear.
			var names []string
			names = append(names, prefixed("p.auto_mine_stats", coreStatsMetricNames)...)
			names = append(names, "p.count")
			names = append(names, prefixed("p.graph_zero_stats", coreStatsMetricNames)...)
			names = append(names, "p.search_aware", "p.search_oblivious")
			return names
		}()},
	}
	for _, c := range cases {
		got := obs.StatsMetricNames("p", c.stats)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s metric enumeration drifted:\n got %v\nwant %v\n"+
				"a Stats field was added/renamed without updating this registration contract (and the golden metrics artifacts)",
				c.label, got, c.want)
		}
	}
}

// TestJobsMetricFamilyEnumeration pins the metric families the job service
// registers eagerly at construction: the plain jobs.* counters, the
// tenant-labeled counters, and the tenant-labeled latency histograms.
// Adding a family to internal/jobs fails here until the expectation — and
// the jobs observability goldens — are updated.
func TestJobsMetricFamilyEnumeration(t *testing.T) {
	reg := obs.NewRegistry(obs.NewVirtualClock())
	s := jobs.New(jobs.Config{Registry: reg, Clock: obs.NewVirtualClock()})
	defer s.Close(context.Background()) //nolint:errcheck // empty server; nothing to drain

	wantCounters := []string{
		"jobs.batch_width", "jobs.batched", "jobs.cancelled", "jobs.completed",
		"jobs.failed", "jobs.queued", "jobs.rejected_queue_full",
	}
	if got := reg.Names(); !reflect.DeepEqual(got, wantCounters) {
		t.Errorf("plain jobs counters drifted:\n got %v\nwant %v", got, wantCounters)
	}
	wantLabeled := []string{"jobs.finished", "jobs.submitted"}
	if got := reg.LabeledCounterNames(); !reflect.DeepEqual(got, wantLabeled) {
		t.Errorf("labeled counter families drifted:\n got %v\nwant %v", got, wantLabeled)
	}
	wantHists := []string{"jobs.queue_wait_ms", "jobs.run_ms"}
	if got := reg.HistogramNames(); !reflect.DeepEqual(got, wantHists) {
		t.Errorf("histogram families drifted:\n got %v\nwant %v", got, wantHists)
	}
}
