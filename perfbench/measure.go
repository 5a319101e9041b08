package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/ecnsim"
)

// pass is what one timed call into the simulator cost and produced. A span
// covers NewCluster and Runner.Run, the public path a user takes.
type pass struct {
	wall    time.Duration
	cpu     time.Duration // user+sys of the whole process
	alloc   uint64        // heap bytes allocated
	mallocs uint64        // heap objects allocated
	gcs     uint32        // GC cycles completed
	events  float64       // sim_events summed over result rows
	results []byte        // the ResultSet as JSON
	rs      *ecnsim.ResultSet
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSS returns the process's peak resident set in bytes.
func maxRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// runPass builds a cluster from opts and runs the scenario once on a serial
// Runner. The heap is collected and its free pages returned to the OS first,
// outside the span, so every pass starts from the same heap state and faults
// its memory in like a fresh process. A non-nil prof receives a CPU profile of
// the span.
func runPass(ctx context.Context, scenario string, opts []ecnsim.Option, prof io.Writer) (pass, error) {
	s, err := ecnsim.MustScenario(scenario)
	if err != nil {
		return pass{}, err
	}
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if prof != nil {
		// StopCPUProfile resets the rate, and StartCPUProfile's own 100 Hz
		// only takes if none is set, so set the rate before every profile.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(prof); err != nil {
			return pass{}, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	c0 := cpuTime()
	t0 := time.Now()

	var rs *ecnsim.ResultSet
	cl, err := ecnsim.NewCluster(opts...)
	if err == nil {
		rs, err = (&ecnsim.Runner{Workers: 1}).Run(ctx, ecnsim.Job{Scenario: s, Cluster: cl})
	}

	wall := time.Since(t0)
	cpu := cpuTime() - c0
	if prof != nil {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	if err != nil {
		return pass{}, err
	}
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		return pass{}, fmt.Errorf("encode results: %w", err)
	}
	p := pass{
		wall:    wall,
		cpu:     cpu,
		alloc:   m1.TotalAlloc - m0.TotalAlloc,
		mallocs: m1.Mallocs - m0.Mallocs,
		gcs:     m1.NumGC - m0.NumGC,
		results: buf.Bytes(),
		rs:      rs,
	}
	for _, r := range rs.Results {
		p.events += r.Value(ecnsim.KeySimEvents)
	}
	return p, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minimum(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// column extracts one figure from each pass.
func column(ps []pass, f func(pass) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}
