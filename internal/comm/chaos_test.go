package comm

import (
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"
)

func TestChaosCallTimeout(t *testing.T) {
	n, err := NewNode("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()
	block := make(chan struct{})
	defer close(block)
	n.Handle(1, func([]byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	c, err := DialConfig(n.Addr(), ClientConfig{CallTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.AM(1, nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("AM against stalled handler: %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	if !IsTransient(err) {
		t.Fatal("timeout not classified transient")
	}
	// The connection itself is still healthy: an unblocked call succeeds.
	n.Handle(2, func([]byte) ([]byte, error) { return []byte("ok"), nil })
	if _, err := c.AM(2, nil); err != nil {
		t.Fatalf("AM after timeout: %v", err)
	}
	if c.Broken() {
		t.Fatal("client marked broken after a mere timeout")
	}
}

// CallAM's explicit deadline overrides the configured one in both
// directions: longer for long-running workloads, shorter for probes.
func TestChaosCallAMOverridesTimeout(t *testing.T) {
	n, c := newTestPair(t)
	release := make(chan struct{})
	defer close(release)
	n.Handle(1, func([]byte) ([]byte, error) {
		select {
		case <-release:
		case <-time.After(100 * time.Millisecond):
		}
		return []byte("slow-ok"), nil
	})
	if _, err := c.CallAM(1, nil, 10*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("short CallAM: %v, want ErrTimeout", err)
	}
	if got, err := c.CallAM(1, nil, 0); err != nil || string(got) != "slow-ok" {
		t.Fatalf("unbounded CallAM = %q, %v", got, err)
	}
}

func TestChaosTransientClassification(t *testing.T) {
	n, c := newTestPair(t)
	n.Handle(1, func([]byte) ([]byte, error) { return nil, errors.New("handler says no") })
	_, err := c.AM(1, nil)
	if err == nil || IsTransient(err) {
		t.Fatalf("remote handler error classified transient: %v", err)
	}
	var rerr *RemoteError
	if !errors.As(err, &rerr) {
		t.Fatalf("remote error has type %T", err)
	}
	if IsTransient(nil) {
		t.Fatal("nil error classified transient")
	}
}

func TestChaosInjectedResetBreaksClient(t *testing.T) {
	n, err := NewNode("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()
	n.Handle(1, func([]byte) ([]byte, error) { return nil, nil })
	// Reset on the 3rd write (seed chosen by scanning; pinned by the
	// injector's determinism).
	inj := NewInjector(FaultPlan{Seed: 3, Reset: 65535})
	c, err := DialConfig(n.Addr(), ClientConfig{Faults: inj, FaultKey: 0})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	_, err = c.AM(1, nil)
	if err == nil {
		t.Fatal("AM succeeded through a 100% reset plan")
	}
	if !IsTransient(err) {
		t.Fatalf("reset not transient: %v", err)
	}
	if !waitUntil(c.Broken, 5*time.Second) { // read loop notices the severed conn
		t.Fatal("client not broken 5s after the reset")
	}
	if _, err := c.AM(1, nil); err == nil {
		t.Fatal("broken client accepted a call")
	}
}

func TestChaosPartitionFailsTraffic(t *testing.T) {
	n, err := NewNode("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()
	n.Handle(1, func([]byte) ([]byte, error) { return []byte("pong"), nil })
	var part Partition
	dial := func() *Client {
		c, err := DialConfig(n.Addr(), ClientConfig{Part: &part})
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	c := dial()
	if _, err := c.AM(1, nil); err != nil {
		t.Fatalf("AM before partition: %v", err)
	}
	part.Sever()
	if _, err := c.AM(1, nil); err == nil {
		t.Fatal("AM crossed an open partition")
	}
	// Healing does not resurrect the severed connection — recovery is a
	// redial, as on a real network.
	part.Heal()
	c2 := dial()
	if got, err := c2.AM(1, nil); err != nil || string(got) != "pong" {
		t.Fatalf("AM after heal+redial = %q, %v", got, err)
	}
}

// Regression (satellite): a half-open client that sends a partial frame and
// goes silent must not pin a handler goroutine forever. With a frame
// deadline armed the node reaps the connection.
func TestChaosHalfOpenConnectionReaped(t *testing.T) {
	n, err := NewNodeConfig("127.0.0.1:0", NodeConfig{FrameTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewNodeConfig: %v", err)
	}
	defer n.Close()
	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// Announce a 64-byte frame, deliver 5 bytes, stall.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 64)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatalf("write header: %v", err)
	}
	conn.Write([]byte("stall"))
	if !waitUntil(func() bool { return n.OpenConns() == 0 }, 5*time.Second) {
		t.Fatalf("half-open connection still pinned after 5s (%d open)", n.OpenConns())
	}
}

// The flip side: an *idle* connection (no frame started) is not reaped by
// the frame deadline, so long-lived drivers that pause between phases keep
// their connections.
func TestChaosIdleConnectionSurvivesFrameTimeout(t *testing.T) {
	n, err := NewNodeConfig("127.0.0.1:0", NodeConfig{FrameTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewNodeConfig: %v", err)
	}
	defer n.Close()
	n.Handle(1, func([]byte) ([]byte, error) { return nil, nil })
	c, err := Dial(n.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.AM(1, nil); err != nil {
		t.Fatalf("first AM: %v", err)
	}
	time.Sleep(200 * time.Millisecond) // several frame-timeouts of idleness
	if _, err := c.AM(1, nil); err != nil {
		t.Fatalf("AM after idling: %v", err)
	}
}

// With IdleTimeout set, a silent connection is reaped even between frames.
func TestChaosIdleTimeoutReapsSilentConns(t *testing.T) {
	n, err := NewNodeConfig("127.0.0.1:0", NodeConfig{IdleTimeout: 80 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewNodeConfig: %v", err)
	}
	defer n.Close()
	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	waitUntil(func() bool { return n.OpenConns() == 1 }, time.Second)
	if !waitUntil(func() bool { return n.OpenConns() == 0 }, 5*time.Second) {
		t.Fatalf("silent connection survived the idle timeout")
	}
}

func TestChaosClientCloseIdempotent(t *testing.T) {
	n, err := NewNode("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()
	c, err := Dial(n.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	first := c.Close()
	second := c.Close()
	if first != second {
		t.Fatalf("double Close: first=%v second=%v", first, second)
	}
}

// Write fencing: a Put arriving on a connection whose identity has since
// registered a higher generation (the owner redialed past it) is rejected,
// so a write stranded on a dead connection cannot clobber a write
// acknowledged on its replacement. Reads stay unfenced — they are
// idempotent — and a hello with a superseded generation fails the dial.
func TestChaosStaleGenerationWriteFenced(t *testing.T) {
	n, err := NewNode("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()
	seg := n.AllocSegment(8)
	dial := func(gen uint64) *Client {
		c, err := DialConfig(n.Addr(), ClientConfig{Identity: 7, Generation: gen})
		if err != nil {
			t.Fatalf("DialConfig(gen %d): %v", gen, err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	put := func(c *Client, v uint64) error {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		return c.Put(seg, 0, b[:])
	}

	c1 := dial(1)
	if err := put(c1, 1); err != nil {
		t.Fatalf("Put on gen 1: %v", err)
	}
	c2 := dial(2) // the redial that superseded c1
	if err := put(c2, 2); err != nil {
		t.Fatalf("Put on gen 2: %v", err)
	}
	err = put(c1, 3)
	if err == nil {
		t.Fatal("Put from a superseded generation landed")
	}
	var rerr *RemoteError
	if !errors.As(err, &rerr) || IsTransient(err) {
		t.Fatalf("fenced Put should be a definitive remote rejection, got %v", err)
	}
	got, err := n.Segment(seg)
	if err != nil || binary.BigEndian.Uint64(got) != 2 {
		t.Fatalf("acked write clobbered: segment = %v, %v", got, err)
	}
	// The stale connection can still read.
	if _, err := c1.Get(seg, 0, 8); err != nil {
		t.Fatalf("Get on superseded generation: %v", err)
	}
	// A fresh dial announcing a superseded generation is rejected outright.
	if _, err := DialConfig(n.Addr(), ClientConfig{Identity: 7, Generation: 1}); err == nil {
		t.Fatal("dial with a superseded generation succeeded")
	}
}

// A peer that stops reading (half-open, socket buffers full) must not pin
// sendMu — and with it every other call on the client — past the call
// deadline: the write deadline fires, the call errors, and the poisoned
// connection is severed so the owner redials.
func TestChaosWriteDeadlineUnpinsSender(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			conn.(*net.TCPConn).SetReadBuffer(8 << 10)
			accepted <- conn // held open, never read
		}
	}()
	c, err := DialConfig(ln.Addr().String(), ClientConfig{CallTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer c.Close()
	c.conn.(*net.TCPConn).SetWriteBuffer(8 << 10)
	defer func() {
		if conn := <-accepted; conn != nil {
			conn.Close()
		}
	}()

	start := time.Now()
	err = c.Put(1, 0, make([]byte, 1<<20)) // overflows the tiny buffers, blocks
	if err == nil {
		t.Fatal("Put into a non-reading peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("write deadline did not fire: Put returned after %v", elapsed)
	}
	if !IsTransient(err) {
		t.Fatalf("write-deadline failure not transient: %v", err)
	}
	// The connection was severed (a partial frame poisons the stream):
	// later calls fail fast instead of queueing behind a pinned sendMu.
	if !waitUntil(c.Broken, 5*time.Second) {
		t.Fatal("client not broken 5s after the failed write")
	}
	start = time.Now()
	if err := c.Put(1, 0, []byte{1}); err == nil {
		t.Fatal("Put on a severed client succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("call on severed client took %v", elapsed)
	}
}

// Stall faults delay but do not corrupt: the call completes once the stall
// elapses (or times out at the caller if its deadline is shorter).
func TestChaosStallFaultDelaysWrite(t *testing.T) {
	n, err := NewNode("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()
	n.Handle(1, func([]byte) ([]byte, error) { return []byte("ok"), nil })
	inj := NewInjector(FaultPlan{Seed: 1, Stall: 65535, StallFor: 30 * time.Millisecond})
	c, err := DialConfig(n.Addr(), ClientConfig{Faults: inj})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	start := time.Now()
	if got, err := c.AM(1, nil); err != nil || string(got) != "ok" {
		t.Fatalf("stalled AM = %q, %v", got, err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("stall not applied: call took %v", elapsed)
	}
	if inj.Count(FaultStall) == 0 {
		t.Fatal("no stall recorded")
	}
}

// waitUntil yields until cond holds or timeout passes, and reports cond.
func waitUntil(cond func() bool, timeout time.Duration) bool {
	for deadline := time.Now().Add(timeout); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			return cond()
		}
	}
	return true
}
