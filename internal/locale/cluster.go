package locale

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rcuarray/internal/comm"
	"rcuarray/internal/memory"
	"rcuarray/internal/obs"
	"rcuarray/internal/qsbr"
	"rcuarray/internal/tasking"
)

// Config sizes a cluster.
type Config struct {
	// Locales is the number of simulated nodes (the paper sweeps 2..32).
	Locales int
	// WorkersPerLocale is the size of each locale's task pool (the
	// paper's machines run 44). Defaults to 4.
	WorkersPerLocale int
	// Comm configures latency charging and accounting.
	Comm comm.Config
	// AutoCheckpoint makes every pool worker invoke a QSBR checkpoint
	// after each completed task — the "checkpoints placed at strategic
	// points in the runtime" option the paper leaves open (Section
	// III-B). Task boundaries are quiescent by construction, so this is
	// always safe; it trades per-task overhead for bounded reclamation
	// lag without any application cooperation.
	AutoCheckpoint bool
}

func (c Config) withDefaults() Config {
	if c.Locales <= 0 {
		c.Locales = 1
	}
	if c.WorkersPerLocale <= 0 {
		c.WorkersPerLocale = 4
	}
	return c
}

// Cluster is a simulated multi-locale system.
type Cluster struct {
	cfg    Config
	fabric *comm.Fabric
	qsbr   *qsbr.Domain
	obs    *obs.Registry
	parked *obs.Gauge
	// localOps/remoteOps back the remote-vs-local access ratio. They are
	// striped by task slot because every element access increments one of
	// them when observability is on; callers gate on obs.On() first.
	localOps  *obs.Striped
	remoteOps *obs.Striped

	locales []*Locale

	privMu  sync.Mutex
	nextPID atomic.Int64

	// nextSlot hands out execution slots to ephemeral tasks (pool tasks
	// use their worker index instead); see Task.Slot.
	nextSlot atomic.Int64

	shutdown atomic.Bool
}

// Locale is one simulated node: private memory (accounted via its Stats),
// a pool of workers, and a privatization table.
type Locale struct {
	id      int
	cluster *Cluster
	pool    *tasking.Pool
	mem     memory.Stats

	// priv is the locale's privatization table: a copy-on-write slice
	// indexed by PID. Lookups are a single atomic load plus an index —
	// the node-local, communication-free access the paper's privatization
	// exists to provide.
	priv atomic.Pointer[[]any]
}

// PID identifies a privatized object; the same PID indexes every locale's
// table (the paper's "privatization id ... used to access the privatized
// instance allocated on each node").
type PID int

// NewCluster starts a cluster.
func NewCluster(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:    cfg,
		fabric: comm.NewFabric(cfg.Locales, cfg.Comm),
		qsbr:   qsbr.New(),
		obs:    obs.NewRegistry(),
	}
	// Fold the cluster's existing exact counters into its registry as
	// read-on-export views, and track pool occupancy via the park hooks.
	c.qsbr.Observe(c.obs)
	c.fabric.Observe(c.obs)
	c.obs.Gauge("tasking_workers").Set(int64(cfg.Locales * cfg.WorkersPerLocale))
	c.parked = c.obs.Gauge("tasking_parked_workers")
	c.localOps = c.obs.StripedCounter("core_local_ops_total", cfg.Locales*cfg.WorkersPerLocale)
	c.remoteOps = c.obs.StripedCounter("core_remote_ops_total", cfg.Locales*cfg.WorkersPerLocale)
	c.obs.GaugeFunc("mem_live_blocks", func() int64 {
		var live int64
		for _, loc := range c.locales {
			live += loc.mem.Live()
		}
		return live
	})
	c.locales = make([]*Locale, cfg.Locales)
	for i := range c.locales {
		loc := &Locale{id: i, cluster: c}
		empty := make([]any, 0)
		loc.priv.Store(&empty)
		loc.pool = tasking.NewPool(
			fmt.Sprintf("locale-%d", i),
			cfg.WorkersPerLocale,
			tasking.Hooks{
				// Workers own QSBR participants: the paper's
				// runtime TLS. Parking a worker parks its
				// participant so an idle thread never stalls
				// reclamation.
				OnStart: func(w *tasking.Worker) { w.TLS = c.qsbr.Register() },
				OnPark: func(w *tasking.Worker) {
					w.TLS.(*qsbr.Participant).Park()
					// Park transitions are already slow (the worker is
					// about to block), so the occupancy gauge is kept
					// unconditionally — flipping obs on mid-run then
					// reads a correct value, not a skewed delta.
					c.parked.Add(1)
				},
				OnUnpark: func(w *tasking.Worker) {
					w.TLS.(*qsbr.Participant).Unpark()
					c.parked.Add(-1)
				},
				AfterTask: func(w *tasking.Worker) {
					if cfg.AutoCheckpoint {
						w.TLS.(*qsbr.Participant).Checkpoint()
					}
				},
				OnStop: func(w *tasking.Worker) {
					c.qsbr.Unregister(w.TLS.(*qsbr.Participant))
				},
			},
		)
		c.locales[i] = loc
	}
	return c
}

// NumLocales returns the number of locales.
func (c *Cluster) NumLocales() int { return c.cfg.Locales }

// WorkersPerLocale returns the per-locale pool size.
func (c *Cluster) WorkersPerLocale() int { return c.cfg.WorkersPerLocale }

// Locale returns locale i.
func (c *Cluster) Locale(i int) *Locale { return c.locales[i] }

// Fabric returns the communication fabric (for accounting assertions).
func (c *Cluster) Fabric() *comm.Fabric { return c.fabric }

// QSBR returns the cluster-wide QSBR domain installed in the runtime.
func (c *Cluster) QSBR() *qsbr.Domain { return c.qsbr }

// Obs returns the cluster's observability registry. Arrays built on the
// cluster and its fabric/QSBR views report here; the harness embeds its
// snapshot into BENCH JSON.
func (c *Cluster) Obs() *obs.Registry { return c.obs }

// Shutdown stops all locale pools. The cluster is unusable afterwards.
func (c *Cluster) Shutdown() {
	if !c.shutdown.CompareAndSwap(false, true) {
		return
	}
	for _, loc := range c.locales {
		loc.pool.Shutdown()
	}
}

// ID returns the locale's id.
func (l *Locale) ID() int { return l.id }

// Cluster returns the owning cluster.
func (l *Locale) Cluster() *Cluster { return l.cluster }

// MemStats returns the locale's allocator statistics.
func (l *Locale) MemStats() *memory.Stats { return &l.mem }

// Pool exposes the locale's task pool (tests and the harness use it).
func (l *Locale) Pool() *tasking.Pool { return l.pool }
