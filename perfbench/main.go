// Command perfbench runs one named workload of the ecnsim simulator through
// its public surface (NewCluster, then Runner.Run) for a fixed number of host
// seconds, checks every pass's results, and prints one JSON line: the
// end-to-end metrics, or with -trace 1 the per-layer metrics taken from a
// CPU profile of traced passes. See README.md in this directory.
//
// Usage:
//
//	perfbench -workload shuffle-ecn -seed 1 -seconds 15 -trace 0 [-out DIR]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// profileHz is the CPU-profile sampling rate of traced passes. The default
// 100 Hz leaves a sub-second layer with a handful of samples; a rate above
// the kernel's timer tick (250 Hz on the reference machine) loses samples,
// since Linux fires per-thread CPU timers on ticks only, and at 500 Hz the
// profile saw half the CPU getrusage measured. checkProfile catches that.
const profileHz = 200

// metric is one named figure in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 15, "host seconds to measure for")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from traced passes")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for CPU profiles and layer tables")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	} else if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}

	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second, outDir: *out}
	var res result
	var err error
	if *trace == 1 {
		res, err = b.traced(context.Background())
	} else {
		res, err = b.endToEnd(context.Background())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		var bad *checkError
		if !errors.As(err, &bad) {
			return 1
		}
		res.Correct = false
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", jerr)
		return 1
	}
	fmt.Println(string(line))
	if err != nil {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// checkError is an output check that failed: the run still prints its
// result line, marked incorrect, and exits non-zero.
type checkError struct{ err error }

func (e *checkError) Error() string { return "output check failed: " + e.err.Error() }
func (e *checkError) Unwrap() error { return e.err }

// bench runs one workload for one seed.
type bench struct {
	w      workload
	seed   uint64
	budget time.Duration
	outDir string

	first     []byte // the first pass's ResultSet, which every pass must repeat
	reference []byte // the reference workload's ResultSet on the same seed
	attempted int
	failed    int

	probes     []pass        // set-up probes so far
	probeStart time.Time     // when the probes' share of the run is counted from
	probeSpent time.Duration // host time the probes have taken, with their heap resets
}

// Set-up probes take this share of the run and at least minProbes; a run
// makes at least minPasses passes.
const (
	probeShare = 0.2
	minProbes  = 3
	minPasses  = 2
)

// prepare runs the reference pass, if the workload has one, and starts the
// count of the probes' share of the run.
func (b *bench) prepare(ctx context.Context) error {
	if b.w.reference != "" {
		ref, _ := lookupWorkload(b.w.reference)
		p, err := runPass(ctx, ref.scenario, ref.cell(b.seed), nil)
		if err != nil {
			return fmt.Errorf("reference %s: %w", ref.name, err)
		}
		b.reference = p.results
	}
	b.probeStart = time.Now()
	return nil
}

// probe runs set-up probes until they have taken probeShare of the run so
// far. Called before every pass, it spreads the probes over the whole run,
// so that a slow spell of the host weighs on their median no more than on
// the passes; a sub-millisecond probe measured in one burst moved by 30%
// between the first and last hundred.
func (b *bench) probe(ctx context.Context) error {
	for len(b.probes) < minProbes || b.probeSpent < time.Duration(probeShare*float64(time.Since(b.probeStart))) {
		t0 := time.Now()
		p, err := runPass(ctx, b.w.scenario, b.w.probe(b.seed), nil)
		if err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		p.results, p.rs = nil, nil // a run keeps thousands of sub-millisecond probes
		b.probes = append(b.probes, p)
		b.probeSpent += time.Since(t0)
	}
	return nil
}

// measured runs one pass of the workload and checks it: against values
// computed apart from the simulator, against the first pass, and against
// the reference workload.
func (b *bench) measured(ctx context.Context, prof io.Writer) (pass, error) {
	p, err := runPass(ctx, b.w.scenario, b.w.cell(b.seed), prof)
	if err != nil {
		return pass{}, err
	}
	attempted, failed, err := b.w.check(p.rs)
	b.attempted += attempted
	b.failed += failed
	if err != nil {
		return pass{}, &checkError{err}
	}
	if b.first == nil {
		b.first = p.results
	} else if !bytes.Equal(p.results, b.first) {
		return pass{}, &checkError{errors.New("a repeated pass gave a different ResultSet")}
	}
	if b.reference != nil && !bytes.Equal(p.results, b.reference) {
		return pass{}, &checkError{fmt.Errorf("ResultSet differs from %s on the same inputs", b.w.reference)}
	}
	return p, nil
}

func (b *bench) result(m map[string]metric) result {
	return result{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}

// endToEnd measures untraced passes for the run's budget and reports the
// end-to-end metrics.
func (b *bench) endToEnd(ctx context.Context) (result, error) {
	deadline := time.Now().Add(b.budget)
	if err := b.prepare(ctx); err != nil {
		return b.result(nil), err
	}
	var passes []pass
	for len(passes) < minPasses || time.Now().Before(deadline) {
		if err := b.probe(ctx); err != nil {
			return b.result(nil), err
		}
		p, err := b.measured(ctx, nil)
		if err != nil {
			return b.result(nil), err
		}
		passes = append(passes, p)
	}
	wall := minimum(column(passes, func(p pass) float64 { return p.wall.Seconds() }))
	events := passes[0].events
	return b.result(map[string]metric{
		"wall_s":           {wall, "s"},
		"cpu_s":            {minimum(column(passes, func(p pass) float64 { return p.cpu.Seconds() })), "cpu-s"},
		"events_per_s":     {events / wall, "events/s"},
		"setup_s":          {median(column(b.probes, func(p pass) float64 { return p.wall.Seconds() })), "s"},
		"alloc_mb":         {median(column(passes, func(p pass) float64 { return float64(p.alloc) })) / 1e6, "MB"},
		"allocs_per_event": {median(column(passes, func(p pass) float64 { return float64(p.mallocs) })) / events, "allocs/event"},
		"max_rss_mb":       {maxRSS() / 1e6, "MB"},
	}), nil
}

// traced alternates untraced and CPU-profiled passes for the run's budget,
// writes each profile and the per-layer table under outDir, and reports the
// per-layer metrics averaged over the traced passes.
func (b *bench) traced(ctx context.Context) (result, error) {
	deadline := time.Now().Add(b.budget)
	if err := b.prepare(ctx); err != nil {
		return b.result(nil), err
	}
	if err := b.probe(ctx); err != nil {
		return b.result(nil), err
	}
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return b.result(nil), err
	}
	base := filepath.Join(b.outDir, fmt.Sprintf("%s-seed%d", b.w.name, b.seed))

	var plain, traced []pass
	var profiles []*profile
	for len(traced) == 0 || time.Now().Before(deadline) {
		p, err := b.measured(ctx, nil)
		if err != nil {
			return b.result(nil), err
		}
		plain = append(plain, p)
		var buf bytes.Buffer
		if p, err = b.measured(ctx, &buf); err != nil {
			return b.result(nil), err
		}
		traced = append(traced, p)
		path := fmt.Sprintf("%s-%d.pprof", base, len(traced))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return b.result(nil), err
		}
		prof, err := chargeLayers(buf.Bytes())
		if err != nil {
			return b.result(nil), err
		}
		profiles = append(profiles, prof)
		if err := checkProfile(prof, p.cpu); err != nil {
			writeLayerTable(base+".layers.txt", b, profiles, traced) // for diagnosis; the check's error is the one to report
			return b.result(nil), fmt.Errorf("traced pass %d: %w", len(traced), err)
		}
	}

	n := float64(len(traced))
	m := make(map[string]metric)
	for _, l := range layers {
		var ns int64
		for _, pr := range profiles {
			ns += pr.layerNS[l]
		}
		m[layerMetric(l)] = metric{float64(ns) / 1e9 / n, "s"}
	}
	var total int64
	for _, pr := range profiles {
		total += pr.totalNS
	}
	if err := writeLayerTable(base+".layers.txt", b, profiles, traced); err != nil {
		return b.result(nil), err
	}
	wall := func(p pass) float64 { return p.wall.Seconds() }
	m["sim.events"] = metric{traced[0].events, "count"}
	m["runtime.gc_cycles"] = metric{median(column(traced, func(p pass) float64 { return float64(p.gcs) })), "count"}
	m["setup.alloc_mb"] = metric{median(column(b.probes, func(p pass) float64 { return float64(p.alloc) })) / 1e6, "MB"}
	m["trace.overhead_s"] = metric{median(column(traced, wall)) - median(column(plain, wall)), "s"}
	m["trace.profile_s"] = metric{float64(total) / 1e9 / n, "cpu-s"}
	return b.result(m), nil
}

// writeLayerTable writes the per-layer CPU table that sits next to the
// profiles it was charged from, with each profile's rate and its CPU against
// the process CPU getrusage measured over the same pass.
func writeLayerTable(path string, b *bench, profiles []*profile, traced []pass) error {
	var s strings.Builder
	n := float64(len(profiles))
	fmt.Fprintf(&s, "# %s seed %d: CPU self time per layer, mean over %d traced pass(es)\n",
		b.w.name, b.seed, len(profiles))
	fmt.Fprintf(&s, "# each sample is charged to its innermost frame outside the Go runtime\n")
	fmt.Fprintf(&s, "%-6s %8s %12s %12s %8s\n", "# pass", "hz", "profile_s", "rusage_s", "ratio")
	var total int64
	for i, pr := range profiles {
		total += pr.totalNS
		cpu := traced[i].cpu.Seconds()
		fmt.Fprintf(&s, "# %-4d %8d %12.6f %12.6f %8.4f\n", i+1, pr.hz, float64(pr.totalNS)/1e9, cpu, float64(pr.totalNS)/1e9/cpu)
	}
	fmt.Fprintf(&s, "%-22s %12s %8s\n", "layer", "cpu_s/pass", "share")
	for _, l := range layers {
		var ns int64
		for _, pr := range profiles {
			ns += pr.layerNS[l]
		}
		share := 0.0
		if total > 0 {
			share = 100 * float64(ns) / float64(total)
		}
		fmt.Fprintf(&s, "%-22s %12.6f %7.2f%%\n", layerMetric(l), float64(ns)/1e9/n, share)
	}
	fmt.Fprintf(&s, "%-22s %12.6f\n", "profile total", float64(total)/1e9/n)
	return os.WriteFile(path, []byte(s.String()), 0o644)
}
