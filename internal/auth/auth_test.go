package auth_test

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"delphi/internal/auth"
	"delphi/internal/node"
)

func TestSealOpenProperty(t *testing.T) {
	const n = 5
	master := []byte("property-master")
	as := make([]*auth.Auth, n)
	for i := range as {
		a, err := auth.New(node.ID(i), n, master)
		if err != nil {
			t.Fatal(err)
		}
		as[i] = a
	}
	f := func(payload []byte, fromRaw, toRaw uint8) bool {
		from := int(fromRaw) % n
		to := int(toRaw) % n
		sealed := as[from].Seal(node.ID(to), payload)
		got, err := as[to].Open(node.ID(from), sealed)
		if err != nil || string(got) != string(payload) {
			return false
		}
		// Any single-byte corruption must be rejected.
		if len(sealed) > 0 {
			bad := append([]byte(nil), sealed...)
			bad[int(fromRaw)%len(bad)] ^= 0x01
			if _, err := as[to].Open(node.ID(from), bad); err == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDifferentMastersDontInteroperate(t *testing.T) {
	a0, _ := auth.New(0, 2, []byte("alpha"))
	b1, _ := auth.New(1, 2, []byte("beta"))
	sealed := a0.Seal(1, []byte("x"))
	if _, err := b1.Open(0, sealed); err == nil {
		t.Error("cross-master frame accepted")
	}
}

// TestEpochFollowsTheMaster pins the epoch id's contract: every node keyed
// from one master derives the same id, and another master gives another.
func TestEpochFollowsTheMaster(t *testing.T) {
	a0, _ := auth.New(0, 5, []byte("alpha"))
	a4, _ := auth.New(4, 5, []byte("alpha"))
	b0, _ := auth.New(0, 5, []byte("beta"))
	if a0.Epoch() != a4.Epoch() {
		t.Errorf("nodes of one master disagree on the epoch: %#x vs %#x", a0.Epoch(), a4.Epoch())
	}
	if a0.Epoch() == b0.Epoch() || a0.Epoch() == 0 {
		t.Errorf("epochs %#x (alpha) and %#x (beta) do not tell the masters apart", a0.Epoch(), b0.Epoch())
	}
}

func TestShortFrameRejected(t *testing.T) {
	a, _ := auth.New(0, 2, []byte("m"))
	if _, err := a.Open(1, []byte{1, 2, 3}); err == nil {
		t.Error("frame shorter than a MAC accepted")
	}
}

// TestAppendSealMatchesSeal pins the in-place sealing path the transports
// use: sealing into a prefilled destination buffer must produce exactly
// Seal's bytes after the prefix, with no extra allocation behaviour
// observable to the verifier.
func TestAppendSealMatchesSeal(t *testing.T) {
	const n = 4
	master := []byte("appendseal-master")
	as := make([]*auth.Auth, n)
	for i := range as {
		a, err := auth.New(node.ID(i), n, master)
		if err != nil {
			t.Fatal(err)
		}
		as[i] = a
	}
	f := func(payload, prefix []byte, fromRaw, toRaw uint8) bool {
		from := int(fromRaw) % n
		to := int(toRaw) % n
		want := as[from].Seal(node.ID(to), payload)
		got := as[from].AppendSeal(node.ID(to), append([]byte(nil), prefix...), payload)
		if !bytes.Equal(got[:len(prefix)], prefix) {
			return false // prefix clobbered
		}
		if !bytes.Equal(got[len(prefix):], want) {
			return false
		}
		opened, err := as[to].Open(node.ID(from), got[len(prefix):])
		return err == nil && bytes.Equal(opened, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Sealing into a reused scratch buffer (the transports' steady state)
	// must append in place: once the scratch has grown to size, repeated
	// seals keep the same backing array instead of reallocating.
	a, b := as[0], as[1]
	scratch := make([]byte, 0, 256)
	payload := []byte{1, 2, 3, 4, 5}
	scratch = a.AppendSeal(1, scratch[:0], payload)
	base := &scratch[0]
	for i := 0; i < 100; i++ {
		scratch = a.AppendSeal(1, scratch[:0], payload)
		if &scratch[0] != base {
			t.Fatal("AppendSeal reallocated a warm scratch buffer")
		}
	}
	if opened, err := b.Open(0, scratch); err != nil || !bytes.Equal(opened, payload) {
		t.Error("scratch-sealed frame does not verify")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := auth.New(5, 3, []byte("m")); err == nil {
		t.Error("self out of range accepted")
	}
	if _, err := auth.New(0, 3, nil); err == nil {
		t.Error("empty master accepted")
	}
}

// TestSealMatchesDirectHMAC pins the wire format against a from-scratch
// HMAC computation: the cached per-peer states are an optimisation and must
// never change a single MAC byte (epoch keys rely on exact MAC semantics).
func TestSealMatchesDirectHMAC(t *testing.T) {
	const n = 4
	master := []byte("direct-hmac-master")
	a0, err := auth.New(0, n, master)
	if err != nil {
		t.Fatal(err)
	}
	// Re-derive the 0<->2 channel key exactly as New documents it.
	kdf := hmac.New(sha256.New, master)
	var pair [16]byte
	binary.LittleEndian.PutUint64(pair[0:], 0)
	binary.LittleEndian.PutUint64(pair[8:], 2)
	kdf.Write(pair[:])
	key := kdf.Sum(nil)

	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("frame"), 100)}
	for _, payload := range payloads {
		sealed := a0.Seal(2, payload)
		mac := hmac.New(sha256.New, key)
		var sender [8]byte
		binary.LittleEndian.PutUint64(sender[:], 0)
		mac.Write(sender[:])
		mac.Write(payload)
		want := mac.Sum(nil)
		if !bytes.Equal(sealed[len(payload):], want) {
			t.Fatalf("payload %q: sealed MAC diverges from direct HMAC", payload)
		}
	}
}

// TestSealOpenZeroAlloc is the satellite's alloc regression: with per-peer
// keyed states cached, sealing into a warm scratch and verifying a frame
// must both be allocation-free — the per-call hmac.New key schedule was the
// dominant seal/open cost after frame batching.
func TestSealOpenZeroAlloc(t *testing.T) {
	a, _ := auth.New(0, 4, []byte("alloc-master"))
	b, _ := auth.New(1, 4, []byte("alloc-master"))
	payload := bytes.Repeat([]byte{0xab}, 200)
	scratch := make([]byte, 0, len(payload)+auth.MACSize)
	scratch = a.AppendSeal(1, scratch, payload) // warm the cached states
	if _, err := b.Open(0, scratch); err != nil {
		t.Fatal(err)
	}
	sealAllocs := testing.AllocsPerRun(100, func() {
		scratch = a.AppendSeal(1, scratch[:0], payload)
	})
	if sealAllocs != 0 {
		t.Errorf("AppendSeal allocates %.1f objects/op, want 0", sealAllocs)
	}
	openAllocs := testing.AllocsPerRun(100, func() {
		if _, err := b.Open(0, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if openAllocs != 0 {
		t.Errorf("Open allocates %.1f objects/op, want 0", openAllocs)
	}
}

// TestAuthConcurrentUse exercises the Auth's lock: an adversary delay
// wrapper's timer goroutines seal alongside the driver, on overlapping
// peers, while the driver verifies inbound frames with the same Auth.
func TestAuthConcurrentUse(t *testing.T) {
	const n = 4
	master := []byte("concurrent-master")
	as := make([]*auth.Auth, n)
	for i := range as {
		as[i], _ = auth.New(node.ID(i), n, master)
	}
	payload := []byte("concurrent frame payload")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			from := g % n
			to := (g + 1) % n
			for i := 0; i < 500; i++ {
				sealed := as[from].Seal(node.ID(to), payload)
				if got, err := as[to].Open(node.ID(from), sealed); err != nil || !bytes.Equal(got, payload) {
					t.Errorf("goroutine %d iter %d: seal/open corrupted under concurrency", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkAppendSeal measures the transports' steady-state sealing path
// (warm scratch, cached keyed HMAC state).
func BenchmarkAppendSeal(b *testing.B) {
	a, _ := auth.New(0, 16, []byte("bench-master"))
	payload := bytes.Repeat([]byte{0x5a}, 256)
	scratch := make([]byte, 0, len(payload)+auth.MACSize)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		scratch = a.AppendSeal(1, scratch[:0], payload)
	}
}

// BenchmarkOpen measures the receive-side verification path.
func BenchmarkOpen(b *testing.B) {
	a0, _ := auth.New(0, 16, []byte("bench-master"))
	a1, _ := auth.New(1, 16, []byte("bench-master"))
	payload := bytes.Repeat([]byte{0x5a}, 256)
	sealed := a0.Seal(1, payload)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if _, err := a1.Open(0, sealed); err != nil {
			b.Fatal(err)
		}
	}
}

// hmacSum is HMAC-SHA256(key, parts...) by crypto/hmac.
func hmacSum(key []byte, parts ...[]byte) []byte {
	mac := hmac.New(sha256.New, key)
	for _, p := range parts {
		mac.Write(p)
	}
	return mac.Sum(nil)
}

// le64 is v's 8-byte little-endian encoding.
func le64(v int) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }

// TestMatchesHMAC pins every MAC byte to crypto/hmac: for masters shorter
// than, equal to and longer than a SHA-256 block (which HMAC hashes first),
// every channel in both directions, frames of 0 to 4 KiB across block
// boundaries, and the epoch.
func TestMatchesHMAC(t *testing.T) {
	const n = 5
	sizes := []int{0, 1, 31, 55, 56, 63, 64, 65, 119, 120, 128, 1000, 4095, 4096}
	for _, master := range [][]byte{[]byte("m"), bytes.Repeat([]byte{7}, 64), bytes.Repeat([]byte("long master "), 20)} {
		as := make([]*auth.Auth, n)
		for i := range as {
			as[i] = mustNew(t, node.ID(i), n, master)
		}
		if want := binary.LittleEndian.Uint64(hmacSum(master, []byte("epoch"))); as[0].Epoch() != want {
			t.Errorf("master of %d bytes: epoch %x, crypto/hmac %x", len(master), as[0].Epoch(), want)
		}
		for from := range n {
			for to := range n {
				key := hmacSum(master, le64(min(from, to)), le64(max(from, to)))
				for _, size := range sizes {
					frame := bytes.Repeat([]byte{byte(size), byte(from), byte(to)}, size)[:size]
					sealed := as[from].Seal(node.ID(to), frame)
					if want := hmacSum(key, le64(from), frame); !bytes.Equal(sealed[size:], want) {
						t.Fatalf("master of %d bytes, %d→%d, %d-byte frame: MAC %x, crypto/hmac %x", len(master), from, to, size, sealed[size:], want)
					}
					if _, err := as[to].Open(node.ID(from), sealed); err != nil {
						t.Fatalf("master of %d bytes, %d→%d, %d-byte frame: %v", len(master), from, to, size, err)
					}
				}
			}
		}
	}
}

// TestKeyingAllocs: keying a node for a 16-node trial and using every
// channel once each way costs a handful of allocations, not several per
// peer (an hmac.New per channel, and a Sum per derived key, cost 156).
func TestKeyingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n = 16
	master := []byte("keying-allocs")
	payload := bytes.Repeat([]byte{0x3c}, 100)
	inbound := make([][]byte, n) // what each peer sealed for node 0
	for peer := range n {
		inbound[peer] = mustNew(t, node.ID(peer), n, master).Seal(0, payload)
	}
	scratch := make([]byte, 0, len(payload)+auth.MACSize)
	allocs := testing.AllocsPerRun(20, func() {
		a, err := auth.New(0, n, master)
		if err != nil {
			t.Fatal(err)
		}
		for peer := range node.ID(n) {
			scratch = a.AppendSeal(peer, scratch[:0], payload)
			if _, err := a.Open(peer, inbound[peer]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 8 {
		t.Errorf("%.0f allocations to key a node and use its %d channels, want ≤ 8", allocs, n)
	}
}

// TestNewBytes: keying a node for a 16-node trial allocates at most 2 KiB. A
// channel key is its two 32-byte chaining values and a flag, where the two
// marshalled 108-byte SHA-256 states it replaced made the peers' keys alone
// 3.4 KiB, and one digest serves every channel.
func TestNewBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n, runs = 16, 100
	master := []byte("keying-bytes")
	as := make([]*auth.Auth, runs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range as {
		as[i], _ = auth.New(0, n, master)
	}
	runtime.ReadMemStats(&after)
	b := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("New(0, %d, master): %.0f bytes", n, b)
	if b > 2048 {
		t.Errorf("New(0, %d, master) allocated %.0f bytes, want at most 2 KiB", n, b)
	}
}

func mustNew(t *testing.T, self node.ID, n int, master []byte) *auth.Auth {
	t.Helper()
	a, err := auth.New(self, n, master)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
