// Package comm models the communication layer beneath the PGAS runtime.
//
// The paper runs on a Cray XC-50 whose Aries network carries three kinds of
// traffic that RCUArray cares about: GET (remote read of a block element),
// PUT (remote write), and active messages (spawning the resize replication
// task on each locale, and acquiring the cluster-wide WriteLock). Chapel
// hides all three behind ordinary syntax; this package makes them explicit
// and measurable.
//
// Two implementations:
//
//   - Fabric: the in-process model used by the simulated cluster. Remote
//     operations touch memory directly but are *charged*: per-(locale, op)
//     counters record message and byte counts, and an optional calibrated
//     busy-wait injects the latency asymmetry between local and remote
//     access that the paper's numbers depend on (a remote lock acquisition
//     is expensive; a node-local metadata read is not).
//   - Node/Client (node.go, client.go): a real transport over
//     net.Listener/net.Conn with a small length-prefixed binary protocol
//     carrying one data-plane frame family, GETV and PUTV (many same-length
//     elements in one frame, applied whole or not at all; a point Get or
//     Put is the one-element frame), and active messages. It exists to
//     demonstrate that the same operations run across genuinely separate
//     address spaces (examples/netarray) and to keep the in-process model
//     honest about what must be serializable. Every call sends its frame at
//     once; a caller batches by putting more elements in one frame. An
//     aligned 8-byte element never tears between concurrent remote and
//     local readers and writers.
package comm
