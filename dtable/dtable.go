// Package dtable provides a parallel-safe distributed hash table — the
// second data structure the paper's conclusion proposes RCU machinery for
// ("a distributed vector or table which both benefit from the ability to be
// resized and indexed with parallel-safety"), in the lineage of the
// resizable RCU hash tables the paper cites (Triplett et al., Section II).
//
// Keys are sharded across locales by hash; each locale owns one RCU-protected
// hash table shard:
//
//   - Lookups are wait-free with respect to writers: they read an immutable
//     bucket-chain snapshot under the shard's reclamation flavor (the
//     paper's TLS-free EBR, or runtime QSBR with task checkpoints).
//   - Inserts, updates, and deletes copy the affected chain, publish it
//     atomically, and retire the superseded nodes through the flavor.
//   - When a shard's load factor passes the threshold, its writer doubles
//     the bucket array and rehashes — concurrently with all readers, the
//     table-level rendition of RCUArray's resize-under-read guarantee.
//
// Operations issued from a task on a different locale than the key's owner
// are charged as communication, like every remote access in this
// repository's PGAS model.
package dtable

import (
	"sync"

	"rcuarray"
	"rcuarray/internal/ebr"
	"rcuarray/internal/locale"
	"rcuarray/internal/memory"
)

// Options configures a Map.
type Options struct {
	// Reclaim selects EBR (default) or QSBR for snapshot reclamation.
	Reclaim rcuarray.Reclaim
	// InitialBuckets is each shard's starting bucket count (rounded up to
	// a power of two). Default 16.
	InitialBuckets int
	// MaxLoadFactor triggers a shard resize when entries/buckets exceeds
	// it. Default 3.
	MaxLoadFactor int
}

func (o Options) withDefaults() Options {
	if o.InitialBuckets <= 0 {
		o.InitialBuckets = 16
	}
	if o.MaxLoadFactor <= 0 {
		o.MaxLoadFactor = 3
	}
	return o
}

// Map is a parallel-safe distributed hash map from uint64 keys to values of
// type V. All operations are safe from any number of tasks concurrently,
// including the shard resizes triggered by inserts.
type Map[V any] struct {
	pid  locale.PID
	opts Options
}

// node is one immutable chain entry. Nodes are never mutated after
// publication; superseded nodes are retired through the shard's flavor.
type node[V any] struct {
	memory.Object
	key   uint64
	value V
	next  *node[V]
}

// buckets is one immutable sizing of a shard: chain heads indexed by
// hash & mask. The slice contents are written only before publication.
type buckets[V any] struct {
	memory.Object
	heads []*node[V]
	mask  uint64
}

// shard is one locale's portion of the table.
type shard[V any] struct {
	mu    sync.Mutex // serializes writers within the shard
	cur   ebr.Cell[buckets[V]]
	count int // entries; mutated under mu
	dom   *ebr.Domain
	opts  Options
}

// New creates a Map distributed over the task's cluster.
func New[V any](t *rcuarray.Task, opts Options) *Map[V] {
	opts = opts.withDefaults()
	nb := 1
	for nb < opts.InitialBuckets {
		nb <<= 1
	}
	pid := locale.Privatize(t, func(loc *locale.Locale) any {
		s := &shard[V]{dom: ebr.New(), opts: opts}
		s.cur.Swap(s.dom, &buckets[V]{heads: make([]*node[V], nb), mask: uint64(nb - 1)}) // replaces nil
		return s
	})
	return &Map[V]{pid: pid, opts: opts}
}

// owner returns the locale owning key.
func (m *Map[V]) owner(t *rcuarray.Task, key uint64) int {
	return int(mix(key) % uint64(t.Cluster().NumLocales()))
}

// shardFor routes to the owning locale's shard, charging the remote access.
// The returned shard lives on locale `owner`; the byte count approximates a
// small request/response.
func (m *Map[V]) shardFor(t *rcuarray.Task, key uint64) *shard[V] {
	owner := m.owner(t, key)
	var s *shard[V]
	t.On(owner, func(sub *rcuarray.Task) {
		s = locale.GetPrivatized[*shard[V]](sub, m.pid)
	})
	return s
}

// Get returns the value for key and whether it was present.
func (m *Map[V]) Get(t *rcuarray.Task, key uint64) (V, bool) {
	s := m.shardFor(t, key)
	var (
		out V
		ok  bool
	)
	read := func() {
		b := s.cur.Load()
		b.CheckLive()
		for n := b.heads[mix(key)&b.mask]; n != nil; n = n.next {
			n.CheckLive()
			if n.key == key {
				out, ok = n.value, true
				return
			}
		}
	}
	if m.opts.Reclaim == rcuarray.QSBR {
		// Valid until the task's next checkpoint.
		read()
	} else {
		// Enter on the task's slot stripe; the deferred exit keeps a
		// poisoned-chain panic from leaking the reader counter.
		s.dom.ReadSlot(t.Slot(), read)
	}
	return out, ok
}

// Put inserts or replaces the value for key. It reports whether the key was
// newly inserted.
func (m *Map[V]) Put(t *rcuarray.Task, key uint64, v V) bool {
	s := m.shardFor(t, key)
	s.mu.Lock()
	b := s.cur.Load()
	idx := mix(key) & b.mask
	head := b.heads[idx]

	// Copy the chain up to (and excluding) the matching node; everything
	// after the match is shared. A miss prepends without copying.
	var retired []*node[V]
	newHead, replaced := rebuildChain(head, key, &v, &retired)
	inserted := !replaced

	nb := cloneBuckets(b)
	nb.heads[idx] = newHead
	s.publish(t, nb, retired)
	if inserted {
		s.count++
		if s.count > len(nb.heads)*s.opts.MaxLoadFactor {
			s.resize(t, nb)
		}
	}
	s.mu.Unlock()
	return inserted
}

// Delete removes key, reporting whether it was present.
func (m *Map[V]) Delete(t *rcuarray.Task, key uint64) bool {
	s := m.shardFor(t, key)
	s.mu.Lock()
	b := s.cur.Load()
	idx := mix(key) & b.mask
	head := b.heads[idx]

	var retired []*node[V]
	newHead, removed := rebuildChain(head, key, nil, &retired)
	if !removed {
		s.mu.Unlock()
		return false
	}
	nb := cloneBuckets(b)
	nb.heads[idx] = newHead
	s.publish(t, nb, retired)
	s.count--
	s.mu.Unlock()
	return true
}

// Len returns the total entry count across all shards. It is a consistent
// total only while writers are quiescent.
func (m *Map[V]) Len(t *rcuarray.Task) int {
	total := 0
	for owner := 0; owner < t.Cluster().NumLocales(); owner++ {
		t.On(owner, func(sub *rcuarray.Task) {
			s := locale.GetPrivatized[*shard[V]](sub, m.pid)
			s.mu.Lock()
			total += s.count
			s.mu.Unlock()
		})
	}
	return total
}

// Range visits every entry. The iteration of each shard runs against one
// bucket snapshot, so entries inserted or deleted concurrently may or may
// not be visited — the usual RCU-read semantics.
func (m *Map[V]) Range(t *rcuarray.Task, fn func(key uint64, v V) bool) {
	for owner := 0; owner < t.Cluster().NumLocales(); owner++ {
		cont := true
		t.On(owner, func(sub *rcuarray.Task) {
			s := locale.GetPrivatized[*shard[V]](sub, m.pid)
			visit := func() {
				b := s.cur.Load()
				for _, head := range b.heads {
					for n := head; n != nil; n = n.next {
						if !fn(n.key, n.value) {
							cont = false
							return
						}
					}
				}
			}
			if m.opts.Reclaim == rcuarray.QSBR {
				visit()
			} else {
				s.dom.ReadSlot(sub.Slot(), visit)
			}
		})
		if !cont {
			return
		}
	}
}

// rebuildChain produces a new chain for a Put (v != nil) or Delete
// (v == nil) of key. It returns the new head and whether key was found.
// Copied-over nodes (the prefix up to and including the match) are appended
// to retired for reclamation; the shared suffix is reused, which is what
// keeps writers O(chain prefix) and readers completely undisturbed.
func rebuildChain[V any](head *node[V], key uint64, v *V, retired *[]*node[V]) (*node[V], bool) {
	// Find the match.
	var match *node[V]
	for n := head; n != nil; n = n.next {
		if n.key == key {
			match = n
			break
		}
	}
	if match == nil {
		if v == nil {
			return head, false // delete miss: chain unchanged
		}
		// Insert miss: prepend, sharing the whole old chain.
		return &node[V]{key: key, value: *v, next: head}, false
	}
	// Copy the prefix before the match; splice in the replacement (Put)
	// or skip the node (Delete); share the suffix after the match.
	var newHead, tail *node[V]
	appendNode := func(n *node[V]) {
		if tail == nil {
			newHead = n
		} else {
			tail.next = n
		}
		tail = n
	}
	for n := head; n != match; n = n.next {
		appendNode(&node[V]{key: n.key, value: n.value})
		*retired = append(*retired, n)
	}
	*retired = append(*retired, match)
	if v != nil {
		appendNode(&node[V]{key: key, value: *v})
	}
	if tail == nil {
		return match.next, true
	}
	tail.next = match.next
	return newHead, true
}

func cloneBuckets[V any](b *buckets[V]) *buckets[V] {
	nb := &buckets[V]{heads: make([]*node[V], len(b.heads)), mask: b.mask}
	copy(nb.heads, b.heads)
	return nb
}

// publish installs nb as the shard's bucket snapshot and retires the old
// snapshot plus any superseded nodes, which only the old snapshot reaches,
// through the configured flavor. Caller holds s.mu.
func (s *shard[V]) publish(t *rcuarray.Task, nb *buckets[V], retiredNodes []*node[V]) {
	u := s.cur.Swap(s.dom, nb)
	free := func(old *buckets[V]) {
		old.Retire()
		for _, n := range retiredNodes {
			n.Retire()
		}
	}
	if s.opts.Reclaim == rcuarray.QSBR {
		u.Defer(t.QSBR().Defer, free)
	} else {
		s.dom.Synchronize()
		free(u.After())
	}
}

// resize doubles the bucket array, rehashing every entry into fresh nodes
// (chain structure changes, so nodes cannot be shared), and retires the old
// snapshot and all old nodes. Caller holds s.mu; readers are undisturbed.
func (s *shard[V]) resize(t *rcuarray.Task, old *buckets[V]) {
	size := len(old.heads) * 2
	nb := &buckets[V]{heads: make([]*node[V], size), mask: uint64(size - 1)}
	var retired []*node[V]
	for _, head := range old.heads {
		for n := head; n != nil; n = n.next {
			idx := mix(n.key) & nb.mask
			nb.heads[idx] = &node[V]{key: n.key, value: n.value, next: nb.heads[idx]}
			retired = append(retired, n)
		}
	}
	s.publish(t, nb, retired)
}

// Buckets returns the current bucket count of the shard owning key
// (diagnostics and tests).
func (m *Map[V]) Buckets(t *rcuarray.Task, key uint64) int {
	s := m.shardFor(t, key)
	return len(s.cur.Load().heads)
}

// EBRStats sums read-side verification retries and synchronize calls across
// shards (zero under QSBR).
func (m *Map[V]) EBRStats(t *rcuarray.Task) (retries, synchronizes uint64) {
	for owner := 0; owner < t.Cluster().NumLocales(); owner++ {
		t.On(owner, func(sub *rcuarray.Task) {
			s := locale.GetPrivatized[*shard[V]](sub, m.pid)
			retries += s.dom.Retries()
			synchronizes += s.dom.Synchronizes()
		})
	}
	return retries, synchronizes
}

// mix is a 64-bit finalizer (splitmix64) giving well-distributed shard and
// bucket selection even for sequential keys.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
