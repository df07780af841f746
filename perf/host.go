package main

import (
	"bufio"
	"bytes"
	"log"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// hostFacts is what a reader needs to judge whether two result files are
// comparable at all.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// pinProcs caps GOMAXPROCS at min(nproc, 4) so a 2-core and a 64-core host
// run the same goroutine schedule shape, and returns the facts to record.
func pinProcs() hostFacts {
	n := runtime.NumCPU()
	p := n
	if p > 4 {
		p = 4
	}
	runtime.GOMAXPROCS(p)
	return hostFacts{
		NProc:      n,
		GOMAXPROCS: p,
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commitID(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitID reads the checked-out commit from .git without running git; the
// benchmark driver's checkout is not a repository, so "unknown" is normal.
func commitID() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(s, "ref: ")
	if !ok {
		return s
	}
	if b, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	return ref
}

// kernelSink keeps the kernel's results observable so it is not removed.
var kernelSink atomic.Uint64

// walk is a single-cycle permutation of 4M indices (16 MiB): following it
// misses every cache level, one dependent load at a time.
var walk = sync.OnceValue(func() []uint32 {
	const n = 4 << 20
	w := make([]uint32, n)
	for i := range w {
		w[i] = uint32(i)
	}
	s := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- { // Sattolo: one cycle through every slot
		s = s*6364136223846793005 + 1442695040888963407
		j := int((s >> 33) % uint64(i))
		w[i], w[j] = w[j], w[i]
	}
	return w
})

// kernelMS times a fixed single-thread loop that belongs to no layer of this
// repository: a pointer chase through 16 MiB, then four independent
// arithmetic chains. It is the host-speed reference. On a shared host what
// moves a workload's time from one minute to the next is contention for the
// core's execution ports and for the memory system — a dependent-multiply
// chain, which uses neither, read 45–46 ms throughout a quarter of an hour
// in which Delphi and Dolev runs moved by a quarter — so the kernel loads
// both.
func kernelMS() float64 {
	w := walk()
	start := time.Now()
	p := uint32(kernelSink.Load()) % uint32(len(w))
	for i := 0; i < 1<<18; i++ {
		p = w[p]
	}
	a, b, c, d := uint64(p), uint64(2), uint64(3), uint64(4)
	for i := 0; i < 1<<24; i++ {
		a = a*6364136223846793005 + 1
		b = b*6364136223846793005 + 3
		c = c ^ (c << 13) ^ uint64(i)
		d = d + (d >> 7) + uint64(i)
	}
	el := time.Since(start)
	kernelSink.Store(uint64(p) + (a+b+c+d)&1)
	return float64(el) / float64(time.Millisecond)
}

// kernelRefMS is the kernel's reading on the reference host (2 shared cores,
// Xeon 2.1 GHz) when nothing else contends for it.
const kernelRefMS = 45.0

// hostGauge samples the kernel while a workload runs, between its ops, so
// that the run carries a reading of how fast the host was during it. The
// end-to-end timings are reported at the reference host's speed: multiplied
// by kernelRefMS over the gauge's median. In two A/A sets of ten runs per
// workload, taken while the host moved between a fast and a slow state
// every few minutes, that took the timings' inter-quartile spread from
// 17–35 % of the median down to 5–13 %.
type hostGauge struct {
	samples []float64
	spent   time.Duration // wall spent sampling
	cpu     time.Duration // process CPU spent sampling
}

// gaugeShare is the share of a window the gauge may use.
const gaugeShare = 0.10

func (g *hostGauge) sample() {
	c, t := cpuTime(), time.Now()
	g.samples = append(g.samples, kernelMS())
	g.spent += time.Since(t)
	g.cpu += cpuTime() - c
}

// factor scales a duration measured during the gauge's run to the reference
// host's speed.
func (g *hostGauge) factor() float64 { return kernelRefMS / median(g.samples) }

// keepUp samples until the gauge has used its share of the time since start.
func (g *hostGauge) keepUp(start time.Time) {
	for float64(g.spent) < gaugeShare*float64(time.Since(start)) {
		g.sample()
	}
}

// ends returns the drift sentinel's two readings: the medians of the
// gauge's first and last three samples, i.e. the host's speed as the window
// opened and as it closed.
func (g *hostGauge) ends() (before, after float64) {
	n := len(g.samples)
	k := 3
	if k > n {
		k = n
	}
	return median(g.samples[:k]), median(g.samples[n-k:])
}

// noisyHost is the sentinel's verdict: the host's speed moved by more than
// 5 % while the workload ran.
func noisyHost(before, after float64) bool {
	lo, hi := before, after
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo > 0 && (hi-lo)/lo > 0.05
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's resident-set high-water mark. Linux
// reports ru_maxrss in KiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// meter brackets a measured window: wall, CPU, and allocator deltas.
type meter struct {
	start     time.Time
	cpu       time.Duration
	mallocs   uint64
	allocated uint64
	gcCycles  uint32
	gcCPU     float64
}

// window is what a meter read between start and stop.
type window struct {
	Wall     time.Duration
	CPU      time.Duration
	Mallocs  uint64
	Bytes    uint64
	GCCycles uint32
	GCCPU    time.Duration
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{
		mallocs:   ms.Mallocs,
		allocated: ms.TotalAlloc,
		gcCycles:  ms.NumGC,
		gcCPU:     gcCPUSeconds(),
		cpu:       cpuTime(),
		start:     time.Now(),
	}
}

func (m meter) stop() window {
	wall := time.Since(m.start)
	cpu := cpuTime() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return window{
		Wall:     wall,
		CPU:      cpu,
		Mallocs:  ms.Mallocs - m.mallocs,
		Bytes:    ms.TotalAlloc - m.allocated,
		GCCycles: ms.NumGC - m.gcCycles,
		GCCPU:    time.Duration((gcCPUSeconds() - m.gcCPU) * float64(time.Second)),
	}
}

// gcCPUSeconds is the runtime's own estimate of CPU spent in the collector.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// peakSampler polls heap-in-use and the goroutine count while a traced
// window runs; both are high-water marks no before/after delta can see.
type peakSampler struct {
	stopc      chan struct{}
	done       chan struct{}
	heapInuse  uint64
	goroutines int
}

func startPeakSampler() *peakSampler {
	p := &peakSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		s := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64() + s[1].Value.Uint64(); v > p.heapInuse {
				p.heapInuse = v
			}
			if g := runtime.NumGoroutine(); g > p.goroutines {
				p.goroutines = g
			}
			select {
			case <-p.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// stop ends the sampler and returns the peaks (heap in MiB, goroutines).
func (p *peakSampler) stop() (heapMiB float64, goroutines int) {
	close(p.stopc)
	<-p.done
	return float64(p.heapInuse) / (1 << 20), p.goroutines
}

// logCounter swallows the standard logger's output for the duration of a
// run and counts what it swallowed. A persistent tcp session logs one line
// per stale-epoch frame ("drop unauthentic frame … MAC verification
// failed"); at ~50 KB per FIN trial that is tens of MB of stderr the
// benchmark would otherwise spend its measured window writing.
type logCounter struct {
	mu        sync.Mutex
	lines     int64
	staleMACs int64
}

var staleMACMarker = []byte("MAC verification failed")

// Write implements io.Writer; the logger hands it one entry per call.
func (c *logCounter) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.lines++
	if bytes.Contains(p, staleMACMarker) {
		c.staleMACs++
	}
	c.mu.Unlock()
	return len(p), nil
}

func (c *logCounter) counts() (lines, staleMACs int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lines, c.staleMACs
}

// captureLogs installs a counter as the standard logger's writer and
// returns it with the function that puts the previous writer back.
func captureLogs() (*logCounter, func()) {
	prev := log.Writer()
	c := &logCounter{}
	log.SetOutput(c)
	return c, func() { log.SetOutput(prev) }
}
