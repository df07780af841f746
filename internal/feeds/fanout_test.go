package feeds_test

import (
	"sync"
	"testing"
	"time"

	"delphi/internal/dist"
	"delphi/internal/feeds"
)

// TestFanoutTotalOrder pins the ordering contract under concurrent
// publishers: Publish is serialised, so every subscriber with enough buffer
// observes the identical global update sequence.
func TestFanoutTotalOrder(t *testing.T) {
	const publishers, perPublisher, subscribers = 4, 250, 3
	f := feeds.NewFanout()
	defer f.Close()
	subs := make([]*feeds.Subscriber, subscribers)
	for i := range subs {
		subs[i] = f.Subscribe(publishers*perPublisher + 1)
	}
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				f.Publish(feeds.Update{Round: int64(p*perPublisher + i), Value: float64(p)})
			}
		}(p)
	}
	wg.Wait()
	var reference []int64
	for i, s := range subs {
		var seen []int64
		for {
			u, ok := s.TryRecv()
			if !ok {
				break
			}
			seen = append(seen, u.Round)
		}
		if len(seen) != publishers*perPublisher {
			t.Fatalf("subscriber %d saw %d updates, want %d (dropped %d with ample buffer)",
				i, len(seen), publishers*perPublisher, s.Dropped())
		}
		if i == 0 {
			reference = seen
			continue
		}
		for j := range seen {
			if seen[j] != reference[j] {
				t.Fatalf("subscriber %d diverges from subscriber 0 at position %d: %d vs %d — publish order is not total",
					i, j, seen[j], reference[j])
			}
		}
	}
}

// TestFanoutSlowSubscriberDropOldest pins the backpressure policy,
// table-driven over buffer sizes: a full buffer sheds the OLDEST update
// (consumers want fresh values), the shed count is exact, and the survivors
// are precisely the newest `buffer` updates in order.
func TestFanoutSlowSubscriberDropOldest(t *testing.T) {
	cases := []struct {
		name      string
		buffer    int
		published int
	}{
		{"no-shedding", 16, 10},
		{"exact-fit", 10, 10},
		{"shed-most", 4, 100},
		{"min-buffer", 1, 25},
		{"clamped-zero-buffer", 0, 7}, // clamps to 1
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := feeds.NewFanout()
			defer f.Close()
			s := f.Subscribe(tc.buffer)
			for i := 0; i < tc.published; i++ {
				f.Publish(feeds.Update{Round: int64(i)})
			}
			capEff := tc.buffer
			if capEff < 1 {
				capEff = 1
			}
			wantKept := tc.published
			if wantKept > capEff {
				wantKept = capEff
			}
			wantDropped := uint64(tc.published - wantKept)
			if got := s.Dropped(); got != wantDropped {
				t.Fatalf("dropped %d, want %d", got, wantDropped)
			}
			for i := 0; i < wantKept; i++ {
				u, ok := s.TryRecv()
				if !ok {
					t.Fatalf("buffer held %d updates, want %d", i, wantKept)
				}
				if want := int64(tc.published - wantKept + i); u.Round != want {
					t.Fatalf("position %d: round %d, want %d (drop-oldest violated)", i, u.Round, want)
				}
			}
			if _, ok := s.TryRecv(); ok {
				t.Fatal("buffer over-retained past its capacity")
			}
		})
	}
}

// TestFanoutCloseSemantics pins the shutdown contract: buffered updates
// drain after Close, then Recv reports false; Publish after Close is a
// no-op; Subscribe after Close yields an immediately-closed subscriber.
func TestFanoutCloseSemantics(t *testing.T) {
	f := feeds.NewFanout()
	s := f.Subscribe(8)
	f.Publish(feeds.Update{Round: 1})
	f.Publish(feeds.Update{Round: 2})
	f.Close()
	f.Publish(feeds.Update{Round: 3}) // dropped silently
	for want := int64(1); want <= 2; want++ {
		u, ok := s.Recv(nil)
		if !ok || u.Round != want {
			t.Fatalf("drain: got (%v,%v), want round %d", u, ok, want)
		}
	}
	if _, ok := s.Recv(nil); ok {
		t.Fatal("Recv delivered past the drained close")
	}
	late := f.Subscribe(4)
	if _, ok := late.Recv(nil); ok {
		t.Fatal("post-close subscriber received an update")
	}
	f.Close() // idempotent
}

// TestFanoutRecvBlocksAndStops pins the blocking receive: Recv waits for a
// publish, and a closed stop channel unblocks it without closing the
// subscriber.
func TestFanoutRecvBlocksAndStops(t *testing.T) {
	f := feeds.NewFanout()
	defer f.Close()
	s := f.Subscribe(4)
	done := make(chan feeds.Update, 1)
	go func() {
		u, _ := s.Recv(nil)
		done <- u
	}()
	time.Sleep(10 * time.Millisecond) // let the receiver block
	f.Publish(feeds.Update{Round: 42})
	select {
	case u := <-done:
		if u.Round != 42 {
			t.Fatalf("blocked Recv woke with round %d", u.Round)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv never woke for a publish")
	}
	stop := make(chan struct{})
	close(stop)
	if _, ok := s.Recv(stop); ok {
		t.Fatal("stopped Recv returned an update from an empty buffer")
	}
	f.Publish(feeds.Update{Round: 43})
	if u, ok := s.Recv(nil); !ok || u.Round != 43 {
		t.Fatal("subscriber died from a stopped Recv")
	}
}

// TestFanoutConcurrentChurn races publishers against subscribe churn and
// slow consumers; under -race this pins the locking discipline.
// Publishers publish concurrently, each its own sequence (Value names the
// publisher, Round counts up), and every subscriber's view of one publisher
// must be a gapless-or-shed subsequence of that publisher's order (strictly
// increasing rounds). Across publishers no order is defined: numbering
// publishes globally would need the number taken and the publish made under
// one lock, which is the concurrency this test exists to exercise.
func TestFanoutConcurrentChurn(t *testing.T) {
	const publishers = 3
	f := feeds.NewFanout()
	defer f.Close()
	stopPub := make(chan struct{})
	var pubWG sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func(p int) {
			defer pubWG.Done()
			for r := int64(0); ; r++ {
				select {
				case <-stopPub:
					return
				default:
				}
				f.Publish(feeds.Update{Round: r, Value: float64(p)})
			}
		}(p)
	}
	var subWG sync.WaitGroup
	for c := 0; c < 6; c++ {
		subWG.Add(1)
		go func(c int) {
			defer subWG.Done()
			for iter := 0; iter < 20; iter++ {
				s := f.Subscribe(2 + c) // tiny buffers: force shedding
				last := [publishers]int64{-1, -1, -1}
				for i := 0; i < 50; i++ {
					u, ok := s.TryRecv()
					if !ok {
						continue
					}
					p := int(u.Value)
					if u.Round <= last[p] {
						t.Errorf("subscriber saw publisher %d out of order: %d after %d", p, u.Round, last[p])
						return
					}
					last[p] = u.Round
				}
			}
		}(c)
	}
	subWG.Wait()
	close(stopPub)
	pubWG.Wait()
}

// TestPopulationDelay pins the modeled-client delay function, table-driven:
// purity (same inputs, same delay), the Base floor, decorrelation across
// subscribers and rounds, and Representatives' shape.
func TestPopulationDelay(t *testing.T) {
	jitter := dist.Lognormal{Mu: 2, Sigma: 0.5} // ~7-8ms median jitter
	cases := []struct {
		name string
		pop  feeds.Population
	}{
		{"base-only", feeds.Population{Size: 1000, Seed: 1, Base: 5 * time.Millisecond}},
		{"jittered", feeds.Population{Size: 1000, Seed: 2, Base: 5 * time.Millisecond, Jitter: jitter}},
		{"zero-base", feeds.Population{Size: 10, Seed: 3, Jitter: jitter}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for round := int64(0); round < 5; round++ {
				for sub := 0; sub < 50; sub++ {
					d1 := tc.pop.Delay(round, sub)
					d2 := tc.pop.Delay(round, sub)
					if d1 != d2 {
						t.Fatalf("Delay(%d,%d) impure: %v vs %v", round, sub, d1, d2)
					}
					if d1 < tc.pop.Base {
						t.Fatalf("Delay(%d,%d)=%v below Base %v", round, sub, d1, tc.pop.Base)
					}
				}
			}
			if tc.pop.Jitter != nil {
				distinct := map[time.Duration]bool{}
				for sub := 0; sub < 50; sub++ {
					distinct[tc.pop.Delay(0, sub)] = true
				}
				if len(distinct) < 40 {
					t.Fatalf("only %d distinct delays across 50 subscribers — jitter not decorrelated", len(distinct))
				}
			}
		})
	}

	repCases := []struct {
		size, max, wantLen int
	}{
		{1_000_000, 64, 64},
		{10, 64, 10},
		{64, 64, 64},
		{5, 0, 0},
		{0, 8, 0},
	}
	for _, rc := range repCases {
		p := feeds.Population{Size: rc.size}
		reps := p.Representatives(rc.max)
		if len(reps) != rc.wantLen {
			t.Fatalf("Representatives(size=%d,max=%d) len %d, want %d", rc.size, rc.max, len(reps), rc.wantLen)
		}
		for i := 1; i < len(reps); i++ {
			if reps[i] <= reps[i-1] || reps[i] >= rc.size {
				t.Fatalf("Representatives not strictly increasing in range: %v", reps)
			}
		}
	}
}
