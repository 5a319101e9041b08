package main

import (
	"fmt"
	"math"
	"time"

	"repro/ecnsim"
)

// workload is one named set of inputs the benchmark runs. Every input is a
// pure function of the benchmark seed; the simulator sees only the options
// built from it.
type workload struct {
	name     string
	scenario string
	// procs pins GOMAXPROCS for the whole process (0 keeps the default,
	// which is the number of CPUs).
	procs int
	// cell returns the options of one measured pass.
	cell func(seed uint64) []ecnsim.Option
	// probe returns the options of one set-up probe: the same fabric, engine
	// and queues as cell, with the workload cut to the least the options
	// accept, so a probe's host time is the build plus a negligible run.
	probe func(seed uint64) []ecnsim.Option
	// reference names a workload whose ResultSet must equal this one's on
	// the same seed ("" = none).
	reference string
	// check validates one pass's ResultSet against values computed apart
	// from the simulator and returns the operations it attempted and failed.
	check func(rs *ecnsim.ResultSet) (attempted, failed int, err error)
}

// simSeed derives the simulator's seed from the benchmark seed with a
// splitmix64 finaliser, so consecutive benchmark seeds give unrelated runs.
func simSeed(seed uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// The shuffle workloads: the paper's Terasort on a 16-node leaf-spine cell
// under RED marking with ACK+SYN protection.
const (
	shuffleNodes  = 16
	shuffleRacks  = 4
	shuffleSpines = 2
	shuffleInput  = 2 << 30
	// linkBytesPerSec is the simulator's default 10 Gbps host link.
	linkBytesPerSec = 10e9 / 8
)

func shuffleOptions(seed uint64) []ecnsim.Option {
	return []ecnsim.Option{
		ecnsim.Nodes(shuffleNodes), ecnsim.Racks(shuffleRacks), ecnsim.Spines(shuffleSpines),
		ecnsim.InputSize(shuffleInput),
		ecnsim.Queue(ecnsim.RED), ecnsim.Protect(ecnsim.ACKSYN),
		ecnsim.TargetDelay(500 * time.Microsecond),
		ecnsim.Seed(simSeed(seed)),
	}
}

// shuffleProbe is the least Terasort the options accept on the same cell:
// one 64 KiB block and one reducer.
func shuffleProbe(seed uint64) []ecnsim.Option {
	return append(shuffleOptions(seed),
		ecnsim.InputSize(64<<10), ecnsim.BlockSize(64<<10), ecnsim.Reducers(1))
}

// checkShuffle holds a Terasort pass to what any correct shuffle must do:
// move every input byte, take at least as long as the busiest host downlink
// needs for its share, and (RED being configured on a congested shuffle)
// mark packets. HDFS spreads blocks and reducers evenly, so at least
// (nodes-1)/nodes of the input crosses host links and some node receives at
// least 1/nodes of that.
func checkShuffle(rs *ecnsim.ResultSet) (int, int, error) {
	if len(rs.Results) != 1 {
		return 0, 0, fmt.Errorf("want 1 result row, got %d", len(rs.Results))
	}
	r := rs.Results[0]
	if got := r.Value(ecnsim.KeyShuffledBytes); got != shuffleInput {
		return 0, 0, fmt.Errorf("shuffled_bytes = %.0f, want the input size %d", got, shuffleInput)
	}
	n := float64(shuffleNodes)
	floor := shuffleInput * (n - 1) / (n * n) / linkBytesPerSec
	if got := r.Value(ecnsim.KeyRuntime); !(got >= floor) {
		return 0, 0, fmt.Errorf("runtime_s = %g, below the host-link floor %g", got, floor)
	}
	if got := r.Value(ecnsim.KeyMarks); !(got > 0) {
		return 0, 0, fmt.Errorf("marks = %g, want > 0 under RED", got)
	}
	return 1, 0, nil
}

// The macro-10k workload: the macroscale home cell (10,000 nodes, 250 racks,
// 16 spines) under the hybrid engine. 256 KiB background transfers put about
// 1,200 jobs in the 240 ms window, so a pass stays near one host second while
// its work varies by only a few percent from seed to seed.
const (
	macroClients  = 64
	macroInterval = 2 * time.Millisecond
	macroWarmup   = 10 * time.Millisecond
	macroMeasure  = 240 * time.Millisecond
	macroFlowSize = 256 << 10
)

func macroOptions(seed uint64, warmup, measure time.Duration) []ecnsim.Option {
	return []ecnsim.Option{
		ecnsim.Hybrid(),
		ecnsim.Queue(ecnsim.RED), ecnsim.Protect(ecnsim.ACKSYN),
		ecnsim.TargetDelay(500 * time.Microsecond),
		ecnsim.RPCClients(macroClients), ecnsim.RPCInterval(macroInterval),
		ecnsim.FlowSize(macroFlowSize),
		ecnsim.Warmup(warmup), ecnsim.Measure(measure),
		ecnsim.Seed(simSeed(seed)),
	}
}

// checkMacro holds a macroscale pass to its open-loop schedule: no more
// probes completed than the clients fired in the measurement window, the run
// stops exactly one drain (measure/3) after the window, the fluid engine
// carried bytes, and no more jobs completed than started. The harness
// abandons transfers still in flight at the stop, so a probe that loses a
// segment and waits out the 200 ms minimum RTO, longer than the 80 ms drain,
// is missing from rpc_count; on some seeds one of the 7,680 is. The operation
// counted is therefore the pass, not the probe.
func checkMacro(rs *ecnsim.ResultSet) (int, int, error) {
	if len(rs.Results) != 1 {
		return 0, 0, fmt.Errorf("want 1 result row, got %d", len(rs.Results))
	}
	r := rs.Results[0]
	issued := macroClients * int(macroMeasure/macroInterval)
	if completed := int(r.Value(ecnsim.KeyRPCCount)); completed < 1 || completed > issued {
		return 0, 0, fmt.Errorf("rpc_count = %d, want 1 to clients*measure/interval = %d", completed, issued)
	}
	want := (time.Millisecond + macroWarmup + macroMeasure + macroMeasure/3).Seconds()
	if got := r.Value(ecnsim.KeySimTime); math.Abs(got-want) > 1e-9 {
		return 0, 0, fmt.Errorf("sim_time_s = %.9f, want %.9f", got, want)
	}
	if got := r.Value(ecnsim.KeyFluidBytes); !(got > 0) {
		return 0, 0, fmt.Errorf("fluid_bytes = %g, want > 0 under Hybrid()", got)
	}
	if sub, done := r.Value(ecnsim.KeyJobsSubmitted), r.Value(ecnsim.KeyJobsCompleted); done > sub {
		return 0, 0, fmt.Errorf("jobs_completed = %g exceeds jobs_submitted = %g", done, sub)
	}
	return 1, 0, nil
}

// The http-facade workload: stock net/http clients and servers over the
// simnet façade, under DropTail, RED default and RED ACK+SYN.
func httpOptions(seed uint64, warmup, measure time.Duration) []ecnsim.Option {
	return []ecnsim.Option{
		ecnsim.Nodes(16), ecnsim.Racks(8), ecnsim.Spines(2),
		ecnsim.RPCClients(8), ecnsim.RPCSizes(2048, 256<<10),
		ecnsim.RPCInterval(time.Millisecond),
		ecnsim.TargetDelay(100 * time.Microsecond),
		ecnsim.Warmup(warmup), ecnsim.Measure(measure), ecnsim.MeasureWindow(measure),
		ecnsim.Seed(simSeed(seed)),
	}
}

// checkHTTP holds an httpload pass to its three setups: every row drained,
// DropTail never marks, both RED rows mark.
func checkHTTP(rs *ecnsim.ResultSet) (int, int, error) {
	want := []string{"droptail", "ecn-default", "ecn-ack+syn"}
	if len(rs.Results) != len(want) {
		return 0, 0, fmt.Errorf("want %d result rows, got %d", len(want), len(rs.Results))
	}
	attempted, failed := 0, 0
	for i, r := range rs.Results {
		if r.Label != want[i] {
			return 0, 0, fmt.Errorf("row %d is %q, want %q", i, r.Label, want[i])
		}
		if r.Value(ecnsim.KeyDrained) != 1 {
			return 0, 0, fmt.Errorf("%s: drained = %g, want 1", r.Label, r.Value(ecnsim.KeyDrained))
		}
		marks := r.Value(ecnsim.KeyMarks)
		if i == 0 && marks != 0 {
			return 0, 0, fmt.Errorf("%s: marks = %g, want 0", r.Label, marks)
		}
		if i > 0 && !(marks > 0) {
			return 0, 0, fmt.Errorf("%s: marks = %g, want > 0", r.Label, marks)
		}
		f := int(r.Value(ecnsim.KeyRPCFailed))
		attempted += int(r.Value(ecnsim.KeyRPCCount)) + f
		failed += f
	}
	return attempted, failed, nil
}

const (
	httpWarmup  = 10 * time.Millisecond
	httpMeasure = 20 * time.Millisecond
)

var workloads = []workload{
	{
		name:     "shuffle-ecn",
		scenario: "leafspine",
		cell:     shuffleOptions,
		probe:    shuffleProbe,
		check:    checkShuffle,
	},
	{
		name:     "shuffle-ecn-sharded",
		scenario: "leafspine",
		// At two Ps the spinning shard workers make a pass take either about
		// 2.5 s or about 4.8 s, from one process to the next; one P gives a
		// repeatable figure for the window, barrier and lane machinery.
		procs: 1,
		cell: func(seed uint64) []ecnsim.Option {
			return append(shuffleOptions(seed), ecnsim.Shards(2))
		},
		probe: func(seed uint64) []ecnsim.Option {
			return append(shuffleProbe(seed), ecnsim.Shards(2))
		},
		reference: "shuffle-ecn",
		check:     checkShuffle,
	},
	{
		name:     "macro-10k",
		scenario: "macroscale",
		cell: func(seed uint64) []ecnsim.Option {
			return macroOptions(seed, macroWarmup, macroMeasure)
		},
		probe: func(seed uint64) []ecnsim.Option {
			return macroOptions(seed, 0, time.Microsecond)
		},
		check: checkMacro,
	},
	{
		name:     "http-facade",
		scenario: "httpload",
		// The façade gate's settle probe is exact only at one P; at two the
		// same seed gives different event counts from pass to pass.
		procs: 1,
		cell: func(seed uint64) []ecnsim.Option {
			return httpOptions(seed, httpWarmup, httpMeasure)
		},
		probe: func(seed uint64) []ecnsim.Option {
			return httpOptions(seed, 0, time.Microsecond)
		},
		check: checkHTTP,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
