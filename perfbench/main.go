// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed time, checks every output it produced against an
// independent reference, and prints one JSON result line: the end-to-end
// metrics with --trace 0, or the per-layer metrics with --trace 1 (taken
// from a traced half-run, beside an untraced half-run that prices the
// tracing itself). README.md in this directory documents the workloads and
// every metric.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload census --seed 1 --seconds 15 --trace 0
//
// The exit code is 0 when every output was correct, 1 when a check failed
// (the result line is still printed, with "correct": false) and 2 on a
// usage error.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// defaultSeed is the workload seed under which every generated graph is
// exactly the repository's dataset stand-in (internal/bench.Datasets).
const defaultSeed = 1

// setupReps is how many times each workload repeats its set-up; setup_s is
// the median.
const setupReps = 7

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	workdir string
	// tiny shrinks every input (graphs, job counts) for the self-test.
	tiny bool
	// corruptReference adds one to a reference count before the outputs
	// are checked, so a test can show that a wrong output fails the run.
	corruptReference bool
}

// sample is what one measured run of a workload yields.
type sample struct {
	setupS []float64 // duration of each set-up repetition
	opMs   []float64 // latency of each operation (pass, round or job)
	// byKind groups the job latencies by (graph, pattern) pair for opP50.
	byKind map[string][]float64
	// opsPerS is operations completed per second of measured time.
	opsPerS float64
	layer   map[string]float64
	// counters are the values that must repeat exactly for a fixed seed
	// and build: deterministic per-layer counters and the outputs.
	counters  map[string]int64
	attempted int
	failed    int
	wrong     []string // correctness failures, each naming what was wrong
}

func newSample() *sample {
	return &sample{layer: map[string]float64{}, counters: map[string]int64{}}
}

// fail records a correctness failure.
func (s *sample) fail(format string, args ...any) {
	s.wrong = append(s.wrong, fmt.Sprintf(format, args...))
}

// workload runs one measured pass of a named workload. tr is nil when
// tracing is off.
type workload func(cfg config, tr *tracer) (*sample, error)

var workloads = map[string]workload{
	"census":     runCensus,
	"accel":      runAccel,
	"jobs-burst": runJobsBurst,
	"jobs-paced": runJobsPaced,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: census, accel, jobs-burst or jobs-paced")
	seed := fs.Uint64("seed", defaultSeed, "workload seed (drives graphs, job draw, tenants, order, arrivals)")
	seconds := fs.Float64("seconds", 15, "measured time per run, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench-work"), "scratch directory for graph files, spans and counters")
	tiny := fs.Bool("tiny", false, "shrink every input (self-test scale)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload census|accel|jobs-burst|jobs-paced, --seconds > 0, --trace 0|1\n")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, workdir: *workdir, tiny: *tiny}
	res, err := measure(*name, w, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, msg := range res.wrong {
		fmt.Fprintln(stderr, "perfbench: INCORRECT:", msg)
	}
	out, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.result.Correct {
		return 1
	}
	return 0
}

// measured is a finished invocation: the printed result plus the named
// correctness failures behind "correct": false.
type measured struct {
	result result
	wrong  []string
}

// measure runs the workload and assembles the result line. Without tracing
// the whole time budget measures the end-to-end metrics. With tracing, an
// untraced half-run and a traced half-run share the budget: the per-layer
// metrics come from the traced one, and their op_p50_ms ratio is the
// tracing overhead.
func measure(name string, w workload, cfg config, traced bool) (*measured, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	var runs []*sample
	if !traced {
		s, err := w(cfg, nil)
		if err != nil {
			return nil, err
		}
		runs = append(runs, s)
	} else {
		half := cfg
		half.seconds = cfg.seconds / 2
		base, err := w(half, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		s, err := w(half, tr)
		if err != nil {
			return nil, err
		}
		runs = append(runs, base, s)
		s.layer["trace.overhead_share"] = opP50(s)/opP50(base) - 1
		for layer, ms := range tr.selfMs() {
			s.layer["trace."+layer+"_self_ms"] = ms / float64(len(s.opMs))
		}
		if err := tr.write(filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.json", name, cfg.seed))); err != nil {
			return nil, err
		}
	}

	m := &measured{}
	attempted, failed := 0, 0
	for _, s := range runs {
		attempted += s.attempted
		failed += s.failed
		m.wrong = append(m.wrong, s.wrong...)
	}
	last := runs[len(runs)-1]
	if len(runs) == 2 {
		m.wrong = append(m.wrong, driftBetween("untraced and traced half-runs", runs[0].counters, last.counters)...)
	}
	drift, err := checkStoredCounters(cfg, name, last.counters)
	if err != nil {
		return nil, err
	}
	m.wrong = append(m.wrong, drift...)

	metrics := map[string]metricValue{}
	if traced {
		last.layer["failed_share"] = float64(failed) / float64(max(attempted, 1))
		for _, sp := range perLayer {
			metrics[sp.name] = metricValue{last.layer[sp.name], sp.unit}
		}
	} else {
		e2e := map[string]float64{
			"setup_s":     median(last.setupS),
			"op_p50_ms":   opP50(last),
			"op_p95_ms":   percentile(last.opMs, 0.95),
			"ops_per_s":   last.opsPerS,
			"rss_peak_mb": peakRSSMB(),
		}
		for _, sp := range endToEnd {
			metrics[sp.name] = metricValue{e2e[sp.name], sp.unit}
		}
	}
	m.result = result{
		Correct:   len(m.wrong) == 0 && failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}
	return m, nil
}

// driftBetween names every counter whose value differs between two runs of
// the same build and seed.
func driftBetween(what string, a, b map[string]int64) []string {
	var out []string
	for _, k := range sortedKeys(a, b) {
		va, oka := a[k]
		vb, okb := b[k]
		if oka != okb || va != vb {
			out = append(out, fmt.Sprintf("deterministic counter %s drifted between %s: %d -> %d", k, what, va, vb))
		}
	}
	return out
}

func sortedKeys(ms ...map[string]int64) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// storedCounters is the file that carries a run's deterministic counters to
// the next run of the same build, workload and seed.
type storedCounters struct {
	Build    string           `json:"build"`
	Tiny     bool             `json:"tiny"`
	Counters map[string]int64 `json:"counters"`
}

// checkStoredCounters compares this run's deterministic counters with those
// a previous run of the identical executable left for the same workload and
// seed, names every counter that drifted, and stores this run's counters.
// A different executable (changed code) starts a fresh record.
func checkStoredCounters(cfg config, name string, counters map[string]int64) ([]string, error) {
	build, err := executableHash()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.workdir, fmt.Sprintf("counters-%s-%d.json", name, cfg.seed))
	var drift []string
	if data, err := os.ReadFile(path); err == nil {
		var prev storedCounters
		if json.Unmarshal(data, &prev) == nil && prev.Build == build && prev.Tiny == cfg.tiny {
			drift = driftBetween("runs of the same build and seed", prev.Counters, counters)
		}
	}
	data, err := json.Marshal(storedCounters{Build: build, Tiny: cfg.tiny, Counters: counters})
	if err != nil {
		return nil, err
	}
	return drift, os.WriteFile(path, data, 0o644)
}

func executableHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// percentile is the nearest-rank q-quantile of xs (0 for an empty slice).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// opP50 is the median operation latency. For jobs it is the geometric mean
// over the job kinds of each kind's median: every run holds each kind
// equally often, and the pooled median of such a mix sits where job costs
// spread widely, so it swings with a few jobs more or less on either side,
// while each kind's own distribution is narrow.
func opP50(s *sample) float64 {
	if len(s.byKind) == 0 {
		return median(s.opMs)
	}
	var logSum float64
	for _, xs := range s.byKind {
		logSum += math.Log(median(xs))
	}
	return math.Exp(logSum / float64(len(s.byKind)))
}

// genSeed derives a graph generator seed from the workload seed. The
// default workload seed keeps the stand-in's own generator seed, so the
// default inputs are the repository's datasets.
func genSeed(standIn, seed uint64) uint64 {
	if seed == defaultSeed {
		return standIn
	}
	z := standIn ^ seed*0x9E3779B97F4A7C15 // splitmix64 mixing
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// more reports whether another operation fits in the time budget, judged by
// the last one's duration; the first always runs.
func more(start time.Time, opMs []float64, seconds float64) bool {
	if len(opMs) == 0 {
		return true
	}
	return time.Since(start).Seconds()+opMs[len(opMs)-1]/1e3 <= seconds
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timed runs f inside a span and returns its wall time.
func timed(tr *tracer, name string, parent int, f func()) time.Duration {
	id := tr.begin(name, parent)
	t := time.Now()
	f()
	d := time.Since(t)
	tr.end(id)
	return d
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
