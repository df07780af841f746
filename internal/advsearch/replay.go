// Live validation of a searched worst case: replay the winning adversary
// (and a clean baseline) on the loopback-tcp backend with a per-probe
// deadline and bounded retry/backoff, so a wedged cluster bounds the wall
// clock instead of hanging the search. Timed-out probes are counted in the
// profile, never fatal — the accounting identity Probes == Scored +
// TimedOut holds across sim probes and replay attempts alike.
package advsearch

import (
	"strings"
	"time"

	"delphi/internal/backend"
	"delphi/internal/bench"
	"delphi/internal/netadv"
	"delphi/internal/sim"
)

// ReplayConfig bounds one live replay.
type ReplayConfig struct {
	// Deadline bounds one cluster run (default 30 s).
	Deadline time.Duration
	// Retries is how many additional attempts a timed-out probe gets
	// (default 2).
	Retries int
	// Backoff is the sleep before the first retry, doubling per retry
	// (default 200 ms).
	Backoff time.Duration
}

func (rc ReplayConfig) withDefaults() ReplayConfig {
	if rc.Deadline <= 0 {
		rc.Deadline = 30 * time.Second
	}
	if rc.Retries < 0 {
		rc.Retries = 0
	} else if rc.Retries == 0 {
		rc.Retries = 2
	}
	if rc.Backoff <= 0 {
		rc.Backoff = 200 * time.Millisecond
	}
	return rc
}

// ReplayResult is the live validation's outcome.
type ReplayResult struct {
	// CleanWall and WorstWall are the wall-clock latencies of the clean
	// and worst-case runs (zero when every attempt timed out).
	CleanWall time.Duration
	WorstWall time.Duration
	// Degraded reports whether the degradation direction was confirmed:
	// both runs completed and the worst case was slower than clean.
	Degraded bool
	// Attempts, Scored, and TimedOut account the replay probes; they are
	// also folded into the profile's totals.
	Attempts, Scored, TimedOut int
}

// ReplayTCP validates the profile's worst case on the loopback-tcp backend:
// one clean run and one run under Best, each with rc's deadline and retry
// policy. It mutates p (Replay, probe accounting) and returns the result.
// Timeouts are not errors — a profile whose replay never completed reports
// Degraded == false with the timeouts counted; only non-timeout failures
// (bad spec, registry errors) surface as an error.
func (p *Profile) ReplayTCP(rc ReplayConfig) (*ReplayResult, error) {
	rc = rc.withDefaults()
	res := &ReplayResult{}
	cleanWall, err := p.replayOne(netadv.Adversary{}, rc, res)
	if err != nil {
		return nil, err
	}
	worstWall, err := p.replayOne(p.Best, rc, res)
	if err != nil {
		return nil, err
	}
	res.CleanWall = cleanWall
	res.WorstWall = worstWall
	res.Degraded = cleanWall > 0 && worstWall > cleanWall
	p.Replay = res
	return res, nil
}

// replayOne runs one adversary on tcp under the deadline/retry policy,
// returning the wall latency of the first completed attempt (0 when all
// attempts timed out). Every attempt is one probe in the accounting.
func (p *Profile) replayOne(adv netadv.Adversary, rc ReplayConfig, res *ReplayResult) (time.Duration, error) {
	spec := bench.RunSpec{
		Protocol:  p.Protocol,
		N:         p.N,
		F:         p.F,
		Env:       sim.AWS(),
		Seed:      p.Seed,
		Inputs:    p.inputs,
		Delphi:    p.params,
		Adversary: adv,
		Backend:   bench.BackendTCP,
	}
	be := backend.TCP{Timeout: rc.Deadline}
	backoff := rc.Backoff
	for attempt := 0; attempt <= rc.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		start := time.Now()
		res.Attempts++
		p.Probes++
		out, err := be.Run(spec)
		if err != nil {
			if isTimeout(err, time.Since(start), rc.Deadline) {
				res.TimedOut++
				p.TimedOut++
				continue
			}
			return 0, err
		}
		res.Scored++
		p.Scored++
		wall := out.Latency
		if wall <= 0 {
			wall = out.Wall
		}
		return wall, nil
	}
	return 0, nil
}

// isTimeout classifies a replay failure as a deadline hit: either the error
// says so or the attempt consumed the whole deadline (a wedged cluster's
// failure mode whatever error text it dies with).
func isTimeout(err error, elapsed, deadline time.Duration) bool {
	if elapsed >= deadline {
		return true
	}
	msg := err.Error()
	return strings.Contains(msg, "timed out") || strings.Contains(msg, "deadline")
}
