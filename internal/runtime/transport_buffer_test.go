package runtime_test

import (
	"encoding/binary"
	"fmt"
	"net"
	runtimestd "runtime"
	"sync/atomic"
	"testing"
	"time"

	"delphi/internal/auth"
	"delphi/internal/node"
	"delphi/internal/runtime"
)

// countingConn counts Read calls on the underlying connection — each one
// is a syscall in the unbuffered transport.
type countingConn struct {
	net.Conn
	reads *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// countingListener hands out counting connections.
type countingListener struct {
	net.Listener
	reads *atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, reads: l.reads}, nil
}

// TestTCPReadsAreBuffered pins the read side's buffering on a connection
// that is not a socket (a wrapper, read through plain Read calls): an
// unbuffered read loop costs two reads (header, body) per frame — 400 for
// 200 frames — while the splitter pulls up to 16 KiB of back-to-back small
// frames into its stage per read. The bound leaves room for TCP segmentation
// while failing loudly if the staging is ever dropped.
func TestTCPReadsAreBuffered(t *testing.T) {
	const frames = 200
	master := []byte("buffered-reads-master")
	auths := make([]*auth.Auth, 2)
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	var reads atomic.Int64
	for i := range lns {
		au, err := auth.New(node.ID(i), 2, master)
		if err != nil {
			t.Fatal(err)
		}
		auths[i] = au
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	// Only the receiver's listener counts: every inbound read-loop read on
	// node 1 goes through the counter.
	cl := &countingListener{Listener: lns[1], reads: &reads}
	trA := runtime.NewTCP(0, addrs, lns[0], auths[0])
	defer trA.Close()
	trB := runtime.NewTCP(1, addrs, cl, auths[1])
	defer trB.Close()

	for i := 0; i < frames; i++ {
		if err := trA.Send(1, []byte(fmt.Sprintf("frame-%03d-0123456789abcdef0123456789abcdef", i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < frames; i++ {
		f, ok := recvFrame(t, trB, 5*time.Second)
		if !ok {
			t.Fatalf("frame %d never arrived (reads so far: %d)", i, reads.Load())
		}
		if f.From != 0 {
			t.Fatalf("frame %d from %v, want 0", i, f.From)
		}
	}
	// 200 frames unbuffered = 400+ reads. The buffered loop typically
	// needs far fewer; < 300 fails loudly on a regression without flaking
	// on scheduling (frames sent one syscall at a time may each land in
	// their own segment, but a read drains every segment already queued).
	if got := reads.Load(); got >= 300 {
		t.Fatalf("receiver issued %d reads for %d frames; want < 300 (buffered)", got, frames)
	}
}

// TestTCPRawReadsWaitWithoutEAGAIN pins the socket read path: a link's read
// loop reads until a short read and then waits for readiness, instead of
// reading once more to see EAGAIN. 200 frames sent one at a time, each
// received before the next is sent, wake the receiver 200 times; a loop that
// read on until EAGAIN spent one empty read per wake-up, about 200 here.
func TestTCPRawReadsWaitWithoutEAGAIN(t *testing.T) {
	const frames = 200
	fab, err := runtime.NewTCPNet(2)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	auths := fabricAuths(t, 2, "raw-reads")
	tx, rx := fab.Endpoint(0, auths[0]), fab.Endpoint(1, auths[1])
	for i := 0; i < frames; i++ {
		if err := tx.Send(1, []byte(fmt.Sprintf("frame-%03d", i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		f, ok := recvFrame(t, rx, 5*time.Second)
		if !ok {
			t.Fatalf("frame %d never arrived", i)
		}
		rx.(runtime.Recycler).Recycle(f.Data)
	}
	if got := fab.EAGAINReads(); got > 10 {
		t.Fatalf("%d reads found the socket empty over %d wake-ups; want <= 10", got, frames)
	}
}

// TestTCPHeaderAlonePinsNothing: a stranger who connects to a fabric's
// listener and sends a header announcing the largest frame the link allows,
// plus one body byte, must not make the read loop fetch a buffer of that
// size (64 MiB): the body is staged only as it arrives. The stranger then
// hangs up mid-frame, which counts one drop — the sign that the header was
// read.
func TestTCPHeaderAlonePinsNothing(t *testing.T) {
	fab, err := runtime.NewTCPNet(2)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	var ms runtimestd.MemStats
	runtimestd.GC()
	runtimestd.ReadMemStats(&ms)
	before := ms.TotalAlloc

	c, err := net.Dial("tcp", fab.Addr(1))
	if err != nil {
		t.Fatal(err)
	}
	rec := binary.LittleEndian.AppendUint32(nil, 0)
	rec = binary.LittleEndian.AppendUint32(rec, runtime.MaxFrameSize)
	if _, err := c.Write(append(rec, 0xab)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for fab.Drops() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the stranger's cut frame was never counted")
		}
		time.Sleep(time.Millisecond)
	}
	runtimestd.ReadMemStats(&ms)
	if grew := ms.TotalAlloc - before; grew >= 1<<20 {
		t.Fatalf("a %d-byte header and one body byte allocated %d bytes; want < 1 MiB", runtime.MaxFrameSize, grew)
	}
}
