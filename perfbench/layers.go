package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runtimeSample reads the Go runtime's allocation, GC and CPU-class
// counters (runtime/metrics).
type runtimeSample struct {
	AllocBytes, GCCycles float64
	// GCCPU and UsedCPU are the runtime's estimates of CPU seconds spent
	// in the garbage collector and in total (all CPU time minus idle).
	GCCPU, UsedCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	v := func(i int) float64 {
		switch ss[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(ss[i].Value.Uint64())
		case metrics.KindFloat64:
			return ss[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{AllocBytes: v(0), GCCycles: v(1), GCCPU: v(2), UsedCPU: v(3) - v(4)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.AllocBytes - b.AllocBytes, a.GCCycles - b.GCCycles, a.GCCPU - b.GCCPU, a.UsedCPU - b.UsedCPU}
}

func (a runtimeSample) add(b runtimeSample) runtimeSample {
	return runtimeSample{a.AllocBytes + b.AllocBytes, a.GCCycles + b.GCCycles, a.GCCPU + b.GCCPU, a.UsedCPU + b.UsedCPU}
}

// heapSampler records the peak of live heap objects, sampled every 5 ms
// while it runs.
type heapSampler struct {
	stop, done chan struct{}
	peak       float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, float64(s[0].Value.Uint64()))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak heap in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return h.peak / (1 << 20)
}

// forRounds calls round until the time budget o.Seconds is spent: a round
// starts only while the previous round's duration still fits, and a run
// has at least one round — two in a traced run, which alternates untraced
// (even k) and traced (odd k) rounds. Every round starts from a collected
// heap.
func forRounds(o options, round func(k int, traced bool) error) error {
	budget := time.Duration(o.Seconds * float64(time.Second))
	minRounds := 1
	if o.Trace {
		minRounds = 2
	}
	start := time.Now()
	var last time.Duration
	for k := 0; k < minRounds || time.Since(start)+last <= budget; k++ {
		t0 := time.Now()
		runtime.GC()
		if err := round(k, o.Trace && k%2 == 1); err != nil {
			return err
		}
		last = time.Since(t0)
	}
	return nil
}

// probe measures the traced rounds of a run: a CPU profile per round,
// runtime/metrics deltas, the heap peak and process CPU seconds.
type probe struct {
	o        options
	profs    []string
	rt       runtimeSample
	heapPeak float64 // MiB
	cpu      float64
}

// traced runs one traced round f under the probe.
func (p *probe) traced(k int, f func()) error {
	path := filepath.Join(p.o.OutDir, fmt.Sprintf("%s-cpu-%d.pprof", p.o.Workload, k))
	heap := startHeapSampler()
	rt0, cpu0 := readRuntime(), cpuSeconds()
	err := profiled(path, f)
	p.heapPeak = max(p.heapPeak, heap.finish())
	if err != nil {
		return err
	}
	p.cpu += cpuSeconds() - cpu0
	p.rt = p.rt.add(readRuntime().sub(rt0))
	p.profs = append(p.profs, path)
	return nil
}

// finish records the runtime and CPU-profile layers over the traced
// rounds; ticks is the detector ticks they executed.
func (p *probe) finish(v map[string]float64, ticks float64) error {
	n := float64(len(p.profs))
	v["runtime.alloc_mb"] = p.rt.AllocBytes / (1 << 20) / n
	v["runtime.gc_cycles"] = p.rt.GCCycles / n
	if p.rt.UsedCPU > 0 {
		v["runtime.gc_cpu_share"] = p.rt.GCCPU / p.rt.UsedCPU
	}
	v["runtime.heap_peak_mb"] = p.heapPeak
	shares, err := foldCPU(p.profs)
	if err != nil {
		return err
	}
	for _, l := range layerCPU {
		v[l+".cpu_share"] = shares[l]
	}
	// The detector's share (core, fft, math) of the traced rounds' CPU
	// seconds, per tick.
	if ticks > 0 {
		detector := shares["core"] + shares["fft"] + shares["math"]
		v["core.ns_per_tick"] = detector * p.cpu * 1e9 / ticks
	}
	return nil
}

// profiled runs f under the CPU profiler, writing the profile to path.
func profiled(path string, f func()) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(out); err != nil {
		out.Close()
		return err
	}
	f()
	pprof.StopCPUProfile()
	return out.Close()
}

// foldCPU merges CPU profiles with `go tool pprof -top` and folds each
// function's flat (self) share into its layer.
func foldCPU(profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}, profiles...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return foldTop(string(out))
}

// foldTop parses `pprof -top` output: after the header line
// "flat flat% sum% cum cum%", each row is those five columns followed by
// the function name.
func foldTop(top string) (map[string]float64, error) {
	shares := map[string]float64{}
	inTable := false
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		if !inTable {
			inTable = len(f) == 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", line, err)
		}
		shares[layerOf(strings.Join(f[5:], " "))] += pct / 100
	}
	if !inTable {
		return nil, fmt.Errorf("pprof output has no table:\n%s", top)
	}
	return shares, nil
}

// layerOf maps a profiled function name to its layer (see layerCPU).
// The package path ends at the first "." after the last "/" of the name's
// part before any receiver or type parameters; unqualified names are the
// runtime's assembly routines.
func layerOf(fn string) string {
	if i := strings.IndexAny(fn, "([ "); i >= 0 {
		fn = fn[:i]
	}
	slash := max(strings.LastIndex(fn, "/"), 0)
	dot := strings.Index(fn[slash:], ".")
	if dot < 0 {
		return "runtime"
	}
	pkg := fn[:slash+dot]
	if l, ok := strings.CutPrefix(pkg, "nimbus/internal/"); ok {
		for _, known := range layerCPU {
			if l == known {
				return l
			}
		}
		return "other"
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "math" || pkg == "math/bits":
		return "math"
	case pkg == "math/rand":
		return "rand"
	case pkg == "net/http":
		return "http"
	case pkg == "encoding/json":
		return "json"
	}
	return "other"
}
