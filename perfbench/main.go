// Command perfbench is the repository's end-to-end benchmark. It drives
// the entry points the binaries wrap — session.RunHolder ×2 plus
// session.RunQuery over loopback TCP (what pprl-party runs) and
// service.New(...).Handler() over loopback HTTP (what pprl-serve runs) —
// from one process, with one closed-loop client, on Adult inputs it
// generates from --seed.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload secure-link --seed 1 --seconds 50 --trace 0
//
// and --workload all runs every workload in turn, one process each.
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// alternates traced and untraced operations and reports per-layer metrics
// measured at the boundaries of public functions and interfaces, plus the
// tracing overhead. The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the lines before it hold
// the provenance envelope and a readable table. The run exits non-zero
// when any correctness gate fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload hands back: the result plus the notes that
// go into the readable table (sample counts, the tail percentile).
type report struct {
	result
	notes   map[string]string
	params  any
	spans   []Span
	samples []float64 // every timed operation's latency in ms, in run order
}

func newReport() *report {
	return &report{result: result{Correct: true, Metrics: map[string]metric{}}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64, unit, note string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

// opFailed counts a failed operation. A correctness-gate failure also
// marks the run incorrect.
func (r *report) opFailed(err error, gate bool) {
	r.Failed++
	if gate {
		r.Correct = false
	}
	fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
}

type workload struct {
	name string
	run  func(cfg runConfig) (*report, error)
}

type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	work    string // scratch directory for CSVs, journals and service state
}

var workloads = []workload{
	{"secure-link", func(c runConfig) (*report, error) { return runLink(c, secureLink) }},
	{"front-link", func(c runConfig) (*report, error) { return runLink(c, frontLink) }},
	{"live-ingest", func(c runConfig) (*report, error) { return runIngest(c, liveIngest) }},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: secure-link, front-link or live-ingest")
		seed    = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 50, "how long to keep starting operations")
		trace   = flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the provenance-stamped report, spans and scratch files")
	)
	flag.Parse()
	correct, err := run(*name, *seed, *seconds, *trace, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !correct {
		fmt.Fprintln(os.Stderr, "perfbench: a correctness gate failed")
		os.Exit(1)
	}
}

// run executes one workload and prints its report. It returns false when
// a correctness gate failed.
func run(name string, seed int64, seconds float64, trace int, out string) (bool, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		names := make([]string, len(workloads))
		for i, x := range workloads {
			names[i] = x.name
		}
		return false, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	if trace != 0 && trace != 1 {
		return false, fmt.Errorf("--trace must be 0 or 1")
	}
	if seconds <= 0 {
		return false, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return false, err
	}
	work, err := os.MkdirTemp(out, "work-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(work)

	prov := provenance(seed)
	started := time.Now()
	rep, err := w.run(runConfig{seed: seed, seconds: seconds, trace: trace == 1, work: work})
	if err != nil {
		return false, err
	}
	prov["workload"] = name
	prov["trace"] = trace
	prov["seconds"] = seconds
	prov["params"] = rep.params
	prov["run_wall_s"] = time.Since(started).Seconds()

	stem := fmt.Sprintf("%s-seed%d-trace%d", name, seed, trace)
	if rep.spans != nil {
		if err := writeSpans(filepath.Join(out, stem+"-spans.jsonl"), rep.spans); err != nil {
			return false, err
		}
	}
	full := map[string]any{"provenance": prov, "result": rep.result, "notes": rep.notes, "samples_ms": rep.samples}
	raw, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(filepath.Join(out, stem+".json"), raw, 0o644); err != nil {
		return false, err
	}

	env, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return false, err
	}
	fmt.Println(string(env))
	printTable(rep)
	last, err := json.Marshal(rep.result)
	if err != nil {
		return false, err
	}
	fmt.Println(string(last))
	return rep.Correct, nil
}

// printTable prints every metric by name with its unit and notes.
func printTable(rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	errRate := 0.0
	if rep.Attempted > 0 {
		errRate = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Printf("# correct=%v attempted=%d failed=%d error_rate=%.4g\n", rep.Correct, rep.Attempted, rep.Failed, errRate)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("# %-32s %14.6g %-6s %s\n", n, m.Value, m.Unit, rep.notes[n])
	}
}

// provenance is the envelope stamped on every report: the host, the
// toolchain, the code and the inputs.
func provenance(seed int64) map[string]any {
	return map[string]any{
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_commit":    gitCommit(),
		"source_sha256": sourceDigest("."),
		"date":          time.Now().UTC().Format(time.RFC3339),
		"seed":          seed,
	}
}
