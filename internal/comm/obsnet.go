package comm

import (
	"errors"
	"fmt"
	"sync/atomic"

	"rcuarray/internal/obs"
)

// Observability for the TCP transport. Like obsfab.go, this lives outside
// the seedpure deterministic domain: it takes wall-clock timestamps, which
// fault.go/fabric.go must never do.

// opName names a request message type for metric labels.
func opName(typ byte) string {
	switch typ {
	case msgAM:
		return "AM"
	case msgHello:
		return "HELLO"
	case msgGetV:
		return "GETV"
	case msgPutV:
		return "PUTV"
	default:
		return fmt.Sprintf("0x%02x", typ)
	}
}

var reqTypes = []byte{msgAM, msgHello, msgGetV, msgPutV}

// Trace track namespaces for the comm layer. Client RPC spans ride one ring
// per client, keyed by ClientConfig.TraceTrack; node-side data-plane handler
// spans ride one ring per served connection. Both sit far above locale/node
// pids, and cluster merging re-homes every pid anyway (obs.WriteClusterTrace).
const (
	ClientTracePid = 1<<15 + 0 // tid = ClientConfig.TraceTrack
	NodeTracePid   = 1<<15 + 1 // tid 0 = AM handlers, tid >= 1 = per-conn data plane
)

// clientObs carries a client's pre-resolved per-(op,peer) handles. Built at
// dial time; nil when the client was dialed without a registry.
type clientObs struct {
	lat      [256]*obs.Histogram // indexed by request message type
	timeouts *obs.Counter
	errors   *obs.Counter
	// Coalescing views: how many frames and bytes each flush of the write
	// queue put on the wire. frames P50 ≈ 1 means callers are not actually
	// concurrent; rising P99 shows the combining flusher absorbing bursts.
	flushFrames *obs.Histogram
	flushBytes  *obs.Histogram
	// RPC spans: traced calls record one complete ('X') event carrying
	// their span id, which the merged cluster trace links to the node-side
	// handler span. Complete events tolerate the concurrent writers that
	// pipelined Wait callers are.
	tr       *obs.Tracer
	ring     *obs.Ring
	rpcNames [256]obs.NameID
}

func newClientObs(r *obs.Registry, peer string, track int) *clientObs {
	tr := r.Tracer()
	co := &clientObs{
		timeouts:    r.Counter(fmt.Sprintf("comm_rpc_timeouts_total{peer=%q}", peer)),
		errors:      r.Counter(fmt.Sprintf("comm_rpc_errors_total{peer=%q}", peer)),
		flushFrames: r.Histogram(fmt.Sprintf("comm_flush_frames{side=%q,peer=%q}", "client", peer)),
		flushBytes:  r.Histogram(fmt.Sprintf("comm_flush_bytes{side=%q,peer=%q}", "client", peer)),
		tr:          tr,
		ring:        tr.Ring(ClientTracePid, track),
	}
	for _, typ := range reqTypes {
		co.lat[typ] = r.Histogram(fmt.Sprintf("comm_rpc_ns{op=%q,peer=%q}", opName(typ), peer))
		co.rpcNames[typ] = tr.Name("rpc." + opName(typ))
	}
	return co
}

// record feeds one call timed from start into the per-(op,peer) histogram
// and the timeout/error counters, and — for a traced call — its RPC span
// into the client's trace ring.
func (co *clientObs) record(typ byte, start obs.Stamp, err error, spanID uint64) {
	co.lat[typ].Since(start)
	if spanID != 0 {
		co.ring.Complete(co.rpcNames[typ], start, spanID)
	}
	switch {
	case err == nil:
	case errors.Is(err, ErrTimeout):
		co.timeouts.Inc()
	default:
		co.errors.Inc()
	}
}

// nodeObs carries a node's request counters, built when NodeConfig.Obs is
// set.
type nodeObs struct {
	reqs   [256]*obs.Counter // indexed by request message type
	fenced *obs.Counter
	// Response-side coalescing views, shared across this node's connections.
	flushFrames *obs.Histogram
	flushBytes  *obs.Histogram
	// Handler spans for traced requests: data-plane (GETV/PUTV) spans
	// go to a per-connection ring (single writer: the serve loop), AM spans
	// to a shared ring written by concurrent handler goroutines (Complete events
	// only, which the ring tolerates).
	tr          *obs.Tracer
	amRing      *obs.Ring
	handleNames [256]obs.NameID
	connSeq     atomic.Uint64 // numbers the per-connection rings (tid)
}

func newNodeObs(r *obs.Registry) *nodeObs {
	tr := r.Tracer()
	no := &nodeObs{
		fenced:      r.Counter("comm_fenced_puts_total"),
		flushFrames: r.Histogram(fmt.Sprintf("comm_flush_frames{side=%q}", "node")),
		flushBytes:  r.Histogram(fmt.Sprintf("comm_flush_bytes{side=%q}", "node")),
		tr:          tr,
		amRing:      tr.Ring(NodeTracePid, 0),
	}
	for _, typ := range reqTypes {
		no.reqs[typ] = r.Counter(fmt.Sprintf("comm_served_total{op=%q}", opName(typ)))
		no.handleNames[typ] = tr.Name("handle." + opName(typ))
	}
	return no
}

// spanStart begins the handler span of a traced request: the zero Stamp
// when the request is untraced, the node has no registry, or observability
// is off.
func (no *nodeObs) spanStart(tc TraceCtx) obs.Stamp {
	if no == nil || tc.SpanID == 0 {
		return 0
	}
	return obs.Start()
}

// dataSpan records one traced data-plane handler span begun at t0 on ring, the
// served connection's data-plane ring, and returns the ring: the first
// traced frame creates it, numbered from connSeq, so the serve loop stays
// its single writer. A zero t0 records nothing and creates no ring.
func (no *nodeObs) dataSpan(ring *obs.Ring, typ byte, t0 obs.Stamp, spanID uint64) *obs.Ring {
	if t0 == 0 {
		return ring
	}
	if ring == nil {
		ring = no.tr.Ring(NodeTracePid, int(no.connSeq.Add(1)))
	}
	ring.Complete(no.handleNames[typ], t0, spanID)
	return ring
}

// amSpan records one traced AM handler span begun at t0 on the shared AM
// ring.
func (no *nodeObs) amSpan(name obs.NameID, t0 obs.Stamp, spanID uint64) {
	if no != nil {
		no.amRing.Complete(name, t0, spanID)
	}
}

// noteReq counts one inbound request frame. Unknown types fall through to a
// nil (no-op) counter.
func (no *nodeObs) noteReq(typ byte) {
	if no != nil && obs.On() {
		no.reqs[typ].Inc()
	}
}

// kindName names a fault kind for metric labels.
func kindName(k FaultKind) string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultDup:
		return "dup"
	case FaultReset:
		return "reset"
	case FaultPartial:
		return "partial"
	case FaultStall:
		return "stall"
	default:
		return k.String()
	}
}

// Observe folds the injector's per-kind fault counts into r as
// read-on-export views (fault.go is deterministic-domain code and cannot
// import obs itself). The chaos tests cross-check these against the
// protocol-level retry/abort counters.
func (j *Injector) Observe(r *obs.Registry) {
	for k := FaultKind(1); k < numFaultKinds; k++ {
		k := k
		r.GaugeFunc(fmt.Sprintf("comm_faults_injected_total{kind=%q}", kindName(k)), func() int64 {
			return int64(j.Count(k))
		})
	}
}
