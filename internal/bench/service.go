package bench

import (
	"container/heap"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"delphi/internal/dist"
	"delphi/internal/feeds"
	"delphi/internal/obs"
	"delphi/internal/run"
)

// This file is the continuous-service oracle mode: instead of one-shot
// agreement trials, a Service drives an open-loop arrival process of
// agreement rounds over a persistent backend session, admits a bounded
// window of concurrent in-flight instances with explicit backpressure,
// and fans decided rounds out to a modeled subscriber population with
// end-to-end staleness measurement.
//
// Two execution models share the configuration and report:
//
//   - The simulator model is a deterministic queueing overlay. Every
//     round's agreement runs through the ordinary batch engine (parallel,
//     byte-identical at any worker count), then a single-threaded virtual
//     clock replays the arrival process against the per-round virtual
//     service times. Reports are byte-identical across reruns and worker
//     counts.
//   - The live model (the live and tcp backends of internal/backend)
//     runs rounds as real concurrent protocol instances multiplexed onto
//     one persistent fabric, paced by the wall clock, with a real
//     feeds.Fanout delivering to live representative subscribers.

// ArrivalKind selects the service's interarrival law.
type ArrivalKind int

const (
	// ArrivalPoisson draws exponential interarrivals: a memoryless open
	// loop at the configured rate.
	ArrivalPoisson ArrivalKind = iota
	// ArrivalBursty draws Pareto interarrivals with the same mean: most
	// gaps are short (bursts), a heavy tail of long lulls.
	ArrivalBursty
)

// String implements fmt.Stringer.
func (k ArrivalKind) String() string {
	switch k {
	case ArrivalPoisson:
		return "poisson"
	case ArrivalBursty:
		return "bursty"
	default:
		return fmt.Sprintf("arrivals(%d)", int(k))
	}
}

const (
	// burstAlpha is ArrivalBursty's Pareto tail index; above 1, so the mean
	// interarrival exists.
	burstAlpha = 1.5
	// subBuffer is each live representative subscriber's fan-out buffer.
	subBuffer = 16
)

// ServiceConfig describes one continuous-service run.
type ServiceConfig struct {
	// Scenario is the per-round workload: protocol, cluster size,
	// environment, input shape, fault load, adversary, and backend. Round i
	// runs the scenario's trial-i spec, so inputs vary round to round
	// exactly as they vary trial to trial in a batch.
	Scenario Scenario
	// Rounds is the number of arrivals to generate.
	Rounds int
	// Rate is the arrival rate in rounds per second — virtual seconds on
	// the simulator, wall seconds on live backends.
	Rate float64
	// Arrivals selects the interarrival law.
	Arrivals ArrivalKind
	// Window bounds concurrent in-flight rounds; 0 means the default, 4.
	Window int
	// Queue bounds the waiting room for rounds arriving with the window
	// full; beyond it arrivals are shed. 0 means shed immediately.
	Queue int
	// Subscribers models the client population fed by decided rounds.
	// Size 0 disables the fan-out stage.
	Subscribers feeds.Population
	// Representatives bounds the live subscriber instances standing in for
	// the population (0 means the default, 8); the rest are modeled through
	// Subscribers.Delay.
	Representatives int
}

func (c ServiceConfig) window() int {
	if c.Window > 0 {
		return c.Window
	}
	return 4
}

func (c ServiceConfig) representatives() int {
	if c.Representatives > 0 {
		return c.Representatives
	}
	return 8
}

// Validate checks the configuration.
func (c ServiceConfig) Validate() error {
	if err := c.Scenario.Validate(); err != nil {
		return err
	}
	if c.Rounds < 1 {
		return fmt.Errorf("bench: service needs Rounds >= 1, got %d", c.Rounds)
	}
	if !(c.Rate > 0) {
		return fmt.Errorf("bench: service needs Rate > 0, got %g", c.Rate)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"Window", c.Window}, {"Queue", c.Queue}, {"Representatives", c.Representatives}} {
		if f.v < 0 {
			return fmt.Errorf("bench: negative %s %d", f.name, f.v)
		}
	}
	return nil
}

// ServiceReport is a service run's accounting and measurements. Every
// arrival is accounted exactly once: Arrived == Decided + Shed + Failed.
type ServiceReport struct {
	// Backend records the executing backend.
	Backend run.BackendKind
	// Arrived counts generated arrivals; Decided, Shed, and Failed
	// partition them.
	Arrived, Decided, Shed, Failed int
	// MaxInFlight and MaxQueued are the observed occupancy high-water
	// marks (MaxInFlight ≤ Window, MaxQueued ≤ Queue).
	MaxInFlight, MaxQueued int
	// LatencyMS is end-to-end per decided round: arrival → decision,
	// queueing included. ServiceMS is the agreement alone (start →
	// decision); QueueMS is the wait (arrival → start).
	LatencyMS, ServiceMS, QueueMS Stream
	// StalenessMS is per (decided round, modeled subscriber): arrival →
	// value visible at the subscriber, i.e. latency + fan-out transit +
	// the subscriber's modeled propagation delay.
	StalenessMS Stream
	// Span is first arrival → last decision (virtual on the simulator,
	// wall on live backends); RoundsPerSec is Decided/Span.
	Span         time.Duration
	RoundsPerSec float64
	// StaleFrames counts frames the session's demux shed because their
	// instance was already collected (late stragglers of decided rounds) —
	// accounted, expected small, and zero on the simulator.
	StaleFrames uint64
	// TransportDrops counts frames the transports observably lost
	// (session-level delta; zero on a healthy run).
	TransportDrops uint64
	// DeliveredUpdates and SubDropped count fan-out deliveries to the
	// representative subscribers and updates shed by their bounded
	// buffers.
	DeliveredUpdates, SubDropped uint64
	// Metrics is the recorder's snapshot when the engine carried one (see
	// Engine.RunService); nil otherwise. Excluded from Fingerprint: the
	// snapshot may include wall-clock and worker-count-dependent readings
	// that carry no byte-identity guarantee.
	Metrics obs.Metrics
}

// Fingerprint renders every deterministic field with exact float bits — the
// byte-identity gate for simulator service runs. Wall-clock-only noise
// (none on the simulator) is excluded by construction: the simulator model
// never touches the wall clock.
func (r *ServiceReport) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "backend=%s arrived=%d decided=%d shed=%d failed=%d maxin=%d maxq=%d span=%d stale=%d drops=%d delivered=%d subdropped=%d\n",
		r.Backend, r.Arrived, r.Decided, r.Shed, r.Failed, r.MaxInFlight, r.MaxQueued,
		int64(r.Span), r.StaleFrames, r.TransportDrops, r.DeliveredUpdates, r.SubDropped)
	fmt.Fprintf(&b, "rps=%x\n", r.RoundsPerSec)
	for _, s := range []struct {
		name string
		st   *Stream
	}{
		{"latency", &r.LatencyMS}, {"service", &r.ServiceMS},
		{"queue", &r.QueueMS}, {"staleness", &r.StalenessMS},
	} {
		fmt.Fprintf(&b, "%s n=%d mean=%x min=%x max=%x p50=%x p99=%x\n",
			s.name, s.st.N(), s.st.Mean(), s.st.Min(), s.st.Max(),
			s.st.Percentile(0.50), s.st.Percentile(0.99))
	}
	return b.String()
}

// Text renders the report for humans. Deterministic on the simulator (it
// prints only virtual-clock quantities there).
func (r *ServiceReport) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "service backend=%s\n", r.Backend)
	fmt.Fprintf(&b, "  rounds: arrived=%d decided=%d shed=%d failed=%d\n",
		r.Arrived, r.Decided, r.Shed, r.Failed)
	fmt.Fprintf(&b, "  occupancy: max-in-flight=%d max-queued=%d\n", r.MaxInFlight, r.MaxQueued)
	fmt.Fprintf(&b, "  throughput: %.2f rounds/s over %v\n", r.RoundsPerSec, r.Span.Round(time.Microsecond))
	fmt.Fprintf(&b, "  latency ms: mean=%.3f p50=%.3f p99=%.3f max=%.3f (queue mean=%.3f)\n",
		r.LatencyMS.Mean(), r.LatencyMS.Percentile(0.50), r.LatencyMS.Percentile(0.99),
		r.LatencyMS.Max(), r.QueueMS.Mean())
	if r.StalenessMS.N() > 0 {
		fmt.Fprintf(&b, "  staleness ms: mean=%.3f p50=%.3f p99=%.3f (%d deliveries, %d shed by slow subscribers)\n",
			r.StalenessMS.Mean(), r.StalenessMS.Percentile(0.50), r.StalenessMS.Percentile(0.99),
			r.DeliveredUpdates, r.SubDropped)
	}
	fmt.Fprintf(&b, "  session: stale-frames=%d transport-drops=%d\n", r.StaleFrames, r.TransportDrops)
	return b.String()
}

// RunService executes one continuous-service run and returns its report.
// Simulator cells run the deterministic queueing model; live and tcp cells
// run concurrent rounds on one of internal/backend's service sessions.
//
// When e.Obs is set it records every round's protocol phases on per-node
// tracks, and the service's round lifecycle on a "service" track:
// svc.queue (arrival → start), svc.round (start → decision) and svc.fanout
// (decision → subscriber-visible) spans, whose durations decompose each
// staleness sample, plus the drop and shed counters. The simulator model
// drives that track on the virtual clock, so its trace bytes are
// reproducible; live backends use the wall clock. ServiceReport.Metrics
// carries the final snapshot.
func (e *Engine) RunService(cfg ServiceConfig, seed int64) (*ServiceReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	kind := cfg.Scenario.Backend
	if kind == "" {
		kind = e.Backend
	}
	if kind == "" || kind == run.BackendSim {
		return e.runServiceSim(cfg, seed)
	}
	b, err := lookupBackend(kind)
	if err != nil {
		return nil, err
	}
	if b.service == nil {
		return nil, fmt.Errorf("bench: backend %q has no service support", kind)
	}
	return e.runServiceLive(cfg, kind, seed, b.service)
}

// interarrival returns arrival i's gap in seconds, a pure function of
// (seed, i).
func (c ServiceConfig) interarrival(seed int64, i int) float64 {
	u := serviceUniform(seed, 0xA11, i)
	switch c.Arrivals {
	case ArrivalBursty:
		// Pareto with mean 1/Rate: xm·α/(α−1) = 1/Rate.
		xm := (burstAlpha - 1) / (burstAlpha * c.Rate)
		return xm * math.Pow(1-u, -1/burstAlpha)
	default:
		return -math.Log(1-u) / c.Rate
	}
}

// serviceUniform maps (seed, stream, i) to a uniform in (0,1) via two
// splitmix64 finalisation rounds — the service's only randomness, shared by
// the sim model and the live arrival pacer so both draw identical processes.
func serviceUniform(seed int64, stream uint64, i int) float64 {
	x := uint64(seed) ^ (stream+1)*0x9E3779B97F4A7C15
	x += uint64(i+1) * 0xBF58476D1CE4E5B9
	x = dist.Mix64(dist.Mix64(x))
	u := float64(x>>11) / (1 << 53)
	if u <= 0 {
		u = 0x1p-53
	}
	if u >= 1 {
		u = 1 - 0x1p-53
	}
	return u
}

// newServiceReport seeds the report's reservoirs so fingerprints are stable.
func newServiceReport(kind run.BackendKind) *ServiceReport {
	r := &ServiceReport{Backend: kind}
	for i, s := range []*Stream{&r.LatencyMS, &r.ServiceMS, &r.QueueMS, &r.StalenessMS} {
		s.KeepSamples = true
		s.SampleSeed = uint64(i + 1)
	}
	return r
}

// finishMetrics rolls the report's accounting into the recorder's registry
// — the one snapshot surface unifying service shedding, fan-out shedding,
// and (on live backends, via the observed fabric and mux) transport drops
// and stale frames — then snapshots it into r.Metrics. Call once per run;
// a nil recorder is a no-op.
func (r *ServiceReport) finishMetrics(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	rec.Counter("service.arrived").Add(int64(r.Arrived))
	rec.Counter("service.decided").Add(int64(r.Decided))
	rec.Counter("service.shed").Add(int64(r.Shed))
	rec.Counter("service.failed").Add(int64(r.Failed))
	rec.Gauge("service.max_inflight").Max(int64(r.MaxInFlight))
	rec.Gauge("service.max_queued").Max(int64(r.MaxQueued))
	rec.Counter("fanout.delivered").Add(int64(r.DeliveredUpdates))
	rec.Counter("fanout.shed").Add(int64(r.SubDropped))
	r.Metrics = rec.Snapshot()
}

// admission is the service's admission state machine, driven by both
// models — the simulator's on its virtual clock, the live one under its
// mutex: an arrival starts while the window has room, waits while the queue
// has, and is shed otherwise; a finished round hands its slot to the oldest
// waiting one. It alone moves Arrived, Decided, Shed, Failed and the
// occupancy marks, so Arrived == Decided + Shed + Failed once it drains.
type admission struct {
	rep              *ServiceReport
	window, queueCap int
	inflight         int
	queue            []int // waiting rounds, FIFO
}

// arrive admits round i, reporting whether it starts now and whether it
// was shed; a round that does neither waits in the queue.
func (a *admission) arrive(i int) (start, shed bool) {
	a.rep.Arrived++
	switch {
	case a.inflight < a.window:
		a.inflight++
		start = true
	case len(a.queue) < a.queueCap:
		a.queue = append(a.queue, i)
	default:
		a.rep.Shed++
		shed = true
	}
	a.rep.MaxInFlight = max(a.rep.MaxInFlight, a.inflight)
	a.rep.MaxQueued = max(a.rep.MaxQueued, len(a.queue))
	return start, shed
}

// finish retires one in-flight round, decided unless failed, and returns
// the waiting round that takes its slot (ok is false when none waits).
func (a *admission) finish(failed bool) (next int, ok bool) {
	if failed {
		a.rep.Failed++
	} else {
		a.rep.Decided++
	}
	if len(a.queue) == 0 {
		a.inflight--
		return 0, false
	}
	next, a.queue = a.queue[0], a.queue[1:]
	return next, true
}

// doneHeap is a min-heap (container/heap) of in-flight completions ordered
// by (time, round): the deterministic tiebreak keeps the sim overlay
// byte-identical when two virtual completions coincide.
type doneHeap []doneEv

type doneEv struct {
	at    float64 // completion time, seconds
	round int
}

func (h doneHeap) Len() int { return len(h) }
func (h doneHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].round < h[j].round
}
func (h doneHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *doneHeap) Push(x any)   { *h = append(*h, x.(doneEv)) }
func (h *doneHeap) Pop() any {
	e := (*h)[len(*h)-1]
	*h = (*h)[:len(*h)-1]
	return e
}

// runServiceSim is the deterministic service model. Agreement rounds run
// through the parallel batch engine first (deterministic per spec), then a
// single-threaded virtual-clock overlay replays arrivals, window occupancy,
// queueing, shedding, and subscriber staleness. Rounds that end up shed had
// their agreement computed for nothing — the price of keeping the batch
// stage embarrassingly parallel; the overlay itself is O(Rounds log Window).
func (e *Engine) runServiceSim(cfg ServiceConfig, seed int64) (*ServiceReport, error) {
	specs := make([]run.RunSpec, cfg.Rounds)
	for i := range specs {
		specs[i] = cfg.Scenario.Spec(seed, i)
	}
	stats, err := e.RunBatch(specs)
	if err != nil {
		return nil, fmt.Errorf("service round: %w", err)
	}

	rep := newServiceReport(run.BackendSim)
	reps := cfg.Subscribers.Representatives(cfg.representatives())
	adm := &admission{rep: rep, window: cfg.window(), queueCap: cfg.Queue}

	// Service-lifecycle trace: one virtual-clock track driven by the
	// single-threaded overlay, so the emitted bytes are pure functions of
	// (cfg, seed). vns converts overlay seconds to track nanoseconds.
	var svcNow int64
	track := e.Obs.NewTrack("service", &svcNow)
	vns := func(sec float64) int64 { return int64(sec * 1e9) }
	startAt := make([]float64, cfg.Rounds)

	var inflight doneHeap
	arrivals := make([]float64, cfg.Rounds)
	now := 0.0
	for i := range arrivals {
		now += cfg.interarrival(seed, i)
		arrivals[i] = now
	}
	lastDone := arrivals[0]

	start := func(round int, at float64) {
		service := float64(stats[round].Latency) / float64(time.Second)
		done := at + service
		heap.Push(&inflight, doneEv{at: done, round: round})
		startAt[round] = at
		rep.QueueMS.Add((at - arrivals[round]) * 1e3)
		rep.ServiceMS.Add(service * 1e3)
	}
	finish := func(ev doneEv) {
		if ev.at > lastDone {
			lastDone = ev.at
		}
		latency := ev.at - arrivals[ev.round]
		rep.LatencyMS.Add(latency * 1e3)
		track.SpanAt("svc.queue", vns(arrivals[ev.round]), vns(startAt[ev.round]), int64(ev.round), 0)
		track.SpanAt("svc.round", vns(startAt[ev.round]), vns(ev.at), int64(ev.round), 0)
		for _, sub := range reps {
			d := cfg.Subscribers.Delay(int64(ev.round), sub)
			rep.StalenessMS.Add(latency*1e3 + float64(d)/float64(time.Millisecond))
			rep.DeliveredUpdates++
			track.SpanAt("svc.fanout", vns(ev.at), vns(ev.at)+int64(d), int64(ev.round), int64(sub))
		}
		if next, ok := adm.finish(false); ok {
			start(next, ev.at)
		}
	}

	for i := 0; i < cfg.Rounds; i++ {
		t := arrivals[i]
		svcNow = vns(t)
		for len(inflight) > 0 && inflight[0].at <= t {
			finish(heap.Pop(&inflight).(doneEv))
		}
		if starts, shed := adm.arrive(i); starts {
			start(i, t)
		} else if shed {
			track.Instant("svc.shed", int64(i), 0)
		}
	}
	for len(inflight) > 0 {
		finish(heap.Pop(&inflight).(doneEv))
	}

	span := lastDone - arrivals[0]
	rep.Span = time.Duration(span * float64(time.Second))
	if span > 0 {
		rep.RoundsPerSec = float64(rep.Decided) / span
	}
	rep.finishMetrics(e.Obs)
	return rep, nil
}

// runServiceLive drives real concurrent rounds over one persistent service
// substrate, paced by the wall clock, with a live fan-out stage.
func (e *Engine) runServiceLive(cfg ServiceConfig, kind run.BackendKind, seed int64, open run.ServiceOpen) (*ServiceReport, error) {
	rec := e.Obs
	spec0 := cfg.Scenario.Spec(seed, 0)
	spec0.Backend = kind
	spec0.Obs = rec // lets the opener observe its fabric and demux
	runner, err := open(spec0, 0)
	if err != nil {
		return nil, fmt.Errorf("bench: open %s service: %w", kind, err)
	}
	defer runner.Close()

	rep := newServiceReport(kind)
	fanout := feeds.NewFanout()
	reps := cfg.Subscribers.Representatives(cfg.representatives())

	// Round-lifecycle trace on the wall clock. runRound goroutines and
	// subscriber goroutines all write here, hence the shared track.
	track := rec.SharedTrack("service")

	// Representative subscribers: each records per-delivery staleness =
	// (wall delivery lag behind the round's arrival) + its modeled
	// propagation delay. Wall-clock quantities, so no determinism claim.
	type subResult struct {
		staleness []float64
		delivered uint64
		dropped   uint64
	}
	subResults := make([]subResult, len(reps))
	var subWG sync.WaitGroup
	for si, subIdx := range reps {
		s := fanout.Subscribe(subBuffer)
		subWG.Add(1)
		go func(si, subIdx int, s *feeds.Subscriber) {
			defer subWG.Done()
			for {
				u, ok := s.Recv(nil)
				if !ok {
					subResults[si].dropped = s.Dropped()
					return
				}
				recvAt := time.Now()
				d := cfg.Subscribers.Delay(u.Round, subIdx)
				lag := recvAt.Sub(u.At) + d
				subResults[si].staleness = append(subResults[si].staleness,
					float64(lag)/float64(time.Millisecond))
				subResults[si].delivered++
				if !u.Decided.IsZero() {
					// Fan-out segment: decision → value visible at the
					// modeled client (transit + its propagation delay).
					track.SpanAt("svc.fanout", rec.WallNS(u.Decided),
						rec.WallNS(recvAt)+int64(d), u.Round, int64(subIdx))
				}
			}
		}(si, subIdx, s)
	}

	// Shared service state, under mu: the admission machine and each
	// round's arrival time.
	var (
		mu        sync.Mutex
		adm       = &admission{rep: rep, window: cfg.window(), queueCap: cfg.Queue}
		arrivedAt = make([]time.Time, cfg.Rounds)
		wg        sync.WaitGroup
		firstMu   sync.Mutex
		firstErr  error
	)
	var launch func(round int)
	runRound := func(round int) {
		defer wg.Done()
		// Written under mu before the round was launched or queued.
		arrived := arrivedAt[round]
		spec := cfg.Scenario.Spec(seed, round)
		spec.Backend = kind
		spec.Obs = rec
		started := time.Now()
		st, err := runner.RunRound(spec)
		decided := time.Now()
		if err == nil {
			track.SpanAt("svc.queue", rec.WallNS(arrived), rec.WallNS(started), int64(round), 0)
			track.SpanAt("svc.round", rec.WallNS(started), rec.WallNS(decided), int64(round), 0)
		}

		mu.Lock()
		if err == nil {
			rep.QueueMS.Add(float64(started.Sub(arrived)) / float64(time.Millisecond))
			rep.ServiceMS.Add(float64(decided.Sub(started)) / float64(time.Millisecond))
			rep.LatencyMS.Add(float64(decided.Sub(arrived)) / float64(time.Millisecond))
		}
		next, queued := adm.finish(err != nil)
		mu.Unlock()

		if err != nil {
			firstMu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("round %d: %w", round, err)
			}
			firstMu.Unlock()
		} else if len(reps) > 0 {
			value := math.NaN()
			if len(st.Outputs) > 0 {
				value = st.Outputs[0]
			}
			fanout.Publish(feeds.Update{Round: int64(round), Value: value, At: arrived, Decided: decided})
		}
		if queued {
			launch(next)
		}
	}
	launch = func(round int) {
		wg.Add(1)
		go runRound(round)
	}

	// Open-loop arrival pacer: the same deterministic interarrival draws as
	// the sim model, applied to the wall clock. Arrivals are never gated on
	// completions — that is what makes backpressure observable.
	begin := time.Now()
	next := begin
	for i := 0; i < cfg.Rounds; i++ {
		next = next.Add(time.Duration(cfg.interarrival(seed, i) * float64(time.Second)))
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		mu.Lock()
		arrivedAt[i] = time.Now()
		start, shed := adm.arrive(i)
		if shed {
			track.Instant("svc.shed", int64(i), 0)
		}
		mu.Unlock()
		if start {
			launch(i)
		}
	}
	wg.Wait()
	fanout.Close()
	subWG.Wait()

	for _, sr := range subResults {
		for _, v := range sr.staleness {
			rep.StalenessMS.Add(v)
		}
		rep.DeliveredUpdates += sr.delivered
		rep.SubDropped += sr.dropped
	}
	rep.Span = time.Since(begin)
	if s := rep.Span.Seconds(); s > 0 {
		rep.RoundsPerSec = float64(rep.Decided) / s
	}
	rep.StaleFrames = runner.StaleFrames()
	rep.TransportDrops = runner.Drops()
	// The observed fabric and demux increment transport.drops and
	// mux.stale_frames live; finishMetrics adds only the service- and
	// fan-out-level tallies, so nothing is double counted.
	rep.finishMetrics(rec)
	if rep.Decided == 0 && firstErr != nil {
		return nil, firstErr
	}
	return rep, nil
}
