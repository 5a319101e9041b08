package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := []struct{ fn, layer string }{
		{"repro/internal/sim.(*Engine).Run", "sim"},
		{"repro/internal/netsim.(*Switch).SetRoutes", "netsim"},
		{"repro/internal/pool.(*ShardSet).worker.func1", "pool"},
		{"repro/internal/stats.(*Sample).Add", "other"},
		{"repro/ecnsim.runMacroscale", "other"},
		{"main.runPass", "other"},
		{"net/http.(*conn).serve", "stdlib"},
		{"sort.Float64s", "stdlib"},
		{"repro/internal/flow.solve[go.shape.*repro/internal/netsim.Port]", "flow"},
	}
	for _, c := range cases {
		pkg := funcPackage(c.fn)
		if isRuntime(c.fn, pkg) {
			t.Errorf("%s: classed as runtime", c.fn)
			continue
		}
		if got := layerOf(pkg); got != c.layer {
			t.Errorf("%s: layer %q, want %q", c.fn, got, c.layer)
		}
	}
	for _, fn := range []string{"runtime.mallocgc", "runtime/internal/atomic.Load", "internal/runtime/maps.(*Map).Get",
		"sync/atomic.(*Int64).Add", "internal/bytealg.IndexByte", "type:.eq.[2]string"} {
		if !isRuntime(fn, funcPackage(fn)) {
			t.Errorf("%s: not classed as runtime", fn)
		}
	}
}

var sink uint64

// TestProfileMatchesRusage profiles a busy loop the way a traced pass does and
// checks the profile against getrusage: the rate the benchmark sets holds on a
// second profile too, and the samples add up to the CPU the process used. Most
// of it lands on this package's layer.
func TestProfileMatchesRusage(t *testing.T) {
	for k := 0; k < 2; k++ {
		var buf bytes.Buffer
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&buf); err != nil {
			t.Fatal(err)
		}
		c0 := cpuTime()
		for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
			for i := 0; i < 1e5; i++ {
				sink = sink*6364136223846793005 + 1442695040888963407
			}
		}
		cpu := cpuTime() - c0
		pprof.StopCPUProfile()
		p, err := chargeLayers(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if err := checkProfile(p, cpu); err != nil {
			t.Fatalf("profile %d: %v", k+1, err)
		}
		if p.layerNS["other"] < p.totalNS/2 {
			t.Fatalf("profile %d: busy loop charged %d of %d ns to other", k+1, p.layerNS["other"], p.totalNS)
		}
	}
}

func TestCheckProfileRejects(t *testing.T) {
	ok := &profile{hz: profileHz, totalNS: int64(time.Second)}
	if err := checkProfile(ok, time.Second); err != nil {
		t.Fatalf("matching profile rejected: %v", err)
	}
	for _, c := range []struct {
		p   *profile
		cpu time.Duration
	}{
		{&profile{hz: 100, totalNS: int64(time.Second)}, time.Second},
		{&profile{hz: profileHz, totalNS: int64(700 * time.Millisecond)}, time.Second},
		{&profile{hz: profileHz, totalNS: int64(time.Second)}, 0},
	} {
		if checkProfile(c.p, c.cpu) == nil {
			t.Errorf("profile %+v against %v accepted", *c.p, c.cpu)
		}
	}
}
