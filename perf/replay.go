package main

import (
	"time"

	"delphi/internal/auth"
	"delphi/internal/codec"
	"delphi/internal/feeds"
	"delphi/internal/node"
	"delphi/internal/runtime"
	"delphi/internal/wire"
)

// prices are per-call costs of the codec and auth layers, measured offline
// on frames the traced pass sampled off the wire. Those layers run inside
// the driver and the transport, where no decorator reaches; count × price
// is how the ledger attributes them.
type prices struct {
	sealNS, openNS     float64 // per frame
	unpackNS           float64 // per batch envelope
	decodeNS, encodeNS float64 // per protocol message
	// readNS is the transport's receive side per frame — the read syscall,
	// the frame's trip through the inbox — which runs on goroutines the
	// transport owns.
	readNS       float64
	frames, msgs int
}

// replayReps repeats the sampled frames so each price averages at least
// tens of thousands of calls.
const replayReps = 8

// price replays the sampled (unsealed, outbound) frames through the public
// entry points of auth, runtime's envelope code, the registry and the
// encoder.
func price(frames [][]byte) (prices, error) {
	var p prices
	if len(frames) == 0 {
		return p, nil
	}
	master := []byte("perf-replay")
	sender, err := auth.New(0, 2, master)
	if err != nil {
		return p, err
	}
	receiver, err := auth.New(1, 2, master)
	if err != nil {
		return p, err
	}
	reg := codec.MustRegistry()

	sealed := make([][]byte, len(frames))
	var buf []byte
	start := time.Now()
	for r := 0; r < replayReps; r++ {
		for _, f := range frames {
			buf = sender.AppendSeal(1, buf[:0], f)
		}
	}
	p.sealNS = perCall(start, replayReps*len(frames))
	for i, f := range frames {
		sealed[i] = sender.Seal(1, f)
	}

	start = time.Now()
	for r := 0; r < replayReps; r++ {
		for _, s := range sealed {
			if _, err := receiver.Open(0, s); err != nil {
				return p, err
			}
		}
	}
	p.openNS = perCall(start, replayReps*len(sealed))

	var inner [][]byte
	envelopes := 0
	for _, f := range frames {
		if !runtime.IsBatch(f) {
			inner = append(inner, f)
			continue
		}
		envelopes++
		if err := runtime.UnpackBatch(f, func(m []byte) bool {
			inner = append(inner, m)
			return true
		}); err != nil {
			return p, err
		}
	}
	if envelopes > 0 {
		sink := 0
		start = time.Now()
		for r := 0; r < replayReps; r++ {
			for _, f := range frames {
				if runtime.IsBatch(f) {
					_ = runtime.UnpackBatch(f, func(m []byte) bool { sink += len(m); return true })
				}
			}
		}
		p.unpackNS = perCall(start, replayReps*envelopes)
	}

	msgs := make([]node.Message, len(inner))
	start = time.Now()
	for r := 0; r < replayReps; r++ {
		for i, f := range inner {
			m, err := reg.DecodeFramed(f)
			if err != nil {
				return p, err
			}
			msgs[i] = m
		}
	}
	p.decodeNS = perCall(start, replayReps*len(inner))

	start = time.Now()
	for r := 0; r < replayReps; r++ {
		for _, m := range msgs {
			if _, err := wire.Encode(m); err != nil {
				return p, err
			}
		}
	}
	p.encodeNS = perCall(start, replayReps*len(msgs))
	p.frames, p.msgs = len(frames), len(inner)
	p.readNS, err = priceRead(frames)
	return p, err
}

// readBurst is how many frames priceRead sends before it waits for the
// receiver: small enough that the sender never blocks on a full socket, so
// its Send time is CPU.
const readBurst = 64

// priceRead pushes the sampled frames through a two-node loopback TCPNet and
// charges the receive side with the process CPU the transfer took minus the
// time the sender spent in Send.
func priceRead(frames [][]byte) (float64, error) {
	net, err := runtime.NewTCPNet(2)
	if err != nil {
		return 0, err
	}
	defer net.Close()
	master := []byte("perf-replay")
	a0, err := auth.New(0, 2, master)
	if err != nil {
		return 0, err
	}
	a1, err := auth.New(1, 2, master)
	if err != nil {
		return 0, err
	}
	tx, rx := net.Endpoint(0, a0), net.Endpoint(1, a1)
	burst := make(chan struct{})
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for n := 1; ; n++ {
			f, ok := rx.Recv(stop)
			if !ok {
				return
			}
			net.Recycle(1, f.Data)
			if n%readBurst == 0 {
				select {
				case burst <- struct{}{}:
				case <-stop:
					return
				}
			}
		}
	}()
	sent := 0
	send := func(reps int) (time.Duration, error) {
		var busy time.Duration
		for r := 0; r < reps; r++ {
			for _, f := range frames {
				t := time.Now()
				if err := tx.Send(1, f); err != nil {
					return 0, err
				}
				busy += time.Since(t)
				if sent++; sent%readBurst == 0 {
					<-burst
				}
			}
		}
		return busy, nil
	}
	// The first send dials; keep it out of the price.
	if _, err := send(1); err != nil {
		return 0, err
	}
	total := replayReps * len(frames)
	cpu := cpuTime()
	busy, err := send(replayReps)
	if err != nil {
		return 0, err
	}
	ns := float64(cpuTime()-cpu-busy) / float64(total)
	if ns < 0 {
		ns = 0
	}
	return ns, nil
}

func perCall(start time.Time, calls int) float64 {
	return float64(time.Since(start)) / float64(calls)
}

// publishNS prices feeds.Fanout.Publish directly: four subscribers, each
// drained by its own goroutine, as the service's representatives are.
func publishNS() float64 {
	const updates = 20000
	f := feeds.NewFanout()
	done := make(chan struct{}, svcRepresentatives)
	for i := 0; i < svcRepresentatives; i++ {
		s := f.Subscribe(16)
		go func() {
			for {
				if _, ok := s.Recv(nil); !ok {
					done <- struct{}{}
					return
				}
			}
		}()
	}
	now := time.Now()
	start := time.Now()
	for i := 0; i < updates; i++ {
		f.Publish(feeds.Update{Round: int64(i), Value: 41000, At: now, Decided: now})
	}
	ns := perCall(start, updates)
	f.Close()
	for i := 0; i < svcRepresentatives; i++ {
		<-done
	}
	return ns
}
