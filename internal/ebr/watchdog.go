package ebr

import (
	"sync/atomic"
	"time"

	"rcuarray/internal/obs"
)

// Grace-period stall watchdog. A writer stuck in Synchronize means some
// reader entered before the epoch advance and never exited — a leaked guard,
// an unbounded pinned session, a deadlocked handler. The watchdog samples the
// domain's in-flight grace period and, once its age passes the threshold,
// names the culprit: the stripe still holding the old parity open, and the
// (slot, entry site) annotation its last reader stored.
//
// False-positive discipline. The only signal is grace-period age, which is
// inherently immune to slow-but-live readers: a reader that enters after the
// epoch advance lands on the NEW parity and is never waited on, so the old
// parity's count can only fall. A warning therefore requires a single reader
// to have stayed inside for the whole threshold — exactly the condition being
// hunted. Each grace period warns at most once (the episode is keyed by the
// Synchronize's start stamp), and the next Synchronize re-arms the watchdog.

// watchdogTracePid is the trace track stall instants are written to, above
// the locale/node (0..n), comm (1<<15), and dist driver (1<<16) namespaces.
const watchdogTracePid = 1 << 17

// StallReport names one stalled grace period. Stripe/Slot/Site are -1/-1/
// "unknown" when the stall resolved between detection and attribution.
type StallReport struct {
	Domain        string // WatchdogConfig.Name
	GraceAgeNanos int64  // how long the Synchronize has been waiting
	Parity        uint64 // parity being waited out
	Stripe        int    // counter cell still held open, -1 if drained
	Readers       uint64 // that cell's reader count at sampling time
	Slot          int    // last annotated reader slot on the cell
	Site          string // how that reader entered: enter, pin, repin
	// PinAgeNanos is a lower bound on how long the culprit has been pinned:
	// it entered before the epoch advance, so at least the grace age. The
	// read path deliberately takes no timestamps, so no tighter bound exists.
	PinAgeNanos int64
}

// WatchdogConfig tunes a domain watchdog. Zero values select the defaults in
// parentheses.
type WatchdogConfig struct {
	// Name labels this domain in reports and trace events ("ebr").
	Name string
	// Threshold is the grace-period age that counts as a stall (1s).
	Threshold time.Duration
	// Interval is the sampling period (Threshold/8, floor 10ms).
	Interval time.Duration
	// Obs receives rcu_stall_warnings_total, the rcu_grace_age_ns gauge,
	// and the rcu.stall trace instants (obs.Default).
	Obs *obs.Registry
	// OnStall, when set, runs on the watchdog goroutine for every warning —
	// the flight-recorder hook (rcunode dumps the registry here).
	OnStall func(StallReport)
}

// Watchdog samples one domain. Stop it before discarding the domain.
type Watchdog struct {
	d        *Domain
	cfg      WatchdogConfig
	warnings *obs.Counter
	ring     *obs.Ring
	nStall   obs.NameID
	count    atomic.Uint64
	fired    int64 // syncStart value already warned for (watchdog goroutine only)
	stop     chan struct{}
	done     chan struct{}
}

// StartWatchdog arms a grace-period stall watchdog on the domain. Sampling
// runs on its own goroutine and is fully gated on obs.On(): with
// observability off the domain publishes no grace-period state and the
// watchdog sees nothing.
func (d *Domain) StartWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Name == "" {
		cfg.Name = "ebr"
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = time.Second
	}
	if cfg.Interval <= 0 {
		cfg.Interval = cfg.Threshold / 8
		if cfg.Interval < 10*time.Millisecond {
			cfg.Interval = 10 * time.Millisecond
		}
	}
	r := cfg.Obs
	if r == nil {
		r = obs.Default
	}
	tr := r.Tracer()
	w := &Watchdog{
		d:        d,
		cfg:      cfg,
		warnings: r.Counter("rcu_stall_warnings_total"),
		ring:     tr.Ring(watchdogTracePid, 0),
		nStall:   tr.Name("rcu.stall"),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	r.GaugeFunc("rcu_grace_age_ns", func() int64 { return obs.Stamp(d.syncStart.Load()).Elapsed() })
	go w.run()
	return w
}

// Stop halts the sampler and waits for it to exit.
func (w *Watchdog) Stop() {
	close(w.stop)
	<-w.done
}

// Warnings returns how many stall warnings this watchdog has fired — the
// chaos harness gates false positives on it staying zero.
func (w *Watchdog) Warnings() uint64 { return w.count.Load() }

func (w *Watchdog) run() {
	defer close(w.done)
	t := time.NewTicker(w.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.sample()
		}
	}
}

func (w *Watchdog) sample() {
	if !obs.On() {
		return
	}
	start := w.d.syncStart.Load()
	if start == 0 {
		return // no grace period in flight
	}
	age := obs.Stamp(start).Elapsed()
	if age < w.cfg.Threshold.Nanoseconds() {
		return
	}
	if w.fired == start {
		return // this episode already warned
	}
	w.fired = start
	w.fire(age)
}

// fire attributes and reports one stall. The culprit scan re-reads live
// counters, so a stall that drains between detection and attribution reports
// Stripe -1 rather than blaming an innocent cell.
func (w *Watchdog) fire(age int64) {
	rep := StallReport{
		Domain:        w.cfg.Name,
		GraceAgeNanos: age,
		Parity:        w.d.syncParity.Load(),
		Stripe:        -1,
		Slot:          -1,
		Site:          "unknown",
		PinAgeNanos:   age,
	}
	for s := 0; s < w.d.Stripes(); s++ {
		c := w.d.StripeReaders(rep.Parity, s)
		if c == 0 {
			continue
		}
		rep.Stripe = s
		rep.Readers = c
		if a := w.d.lastEntry[rep.Parity&1][s].Load(); a&1 != 0 {
			rep.Slot = int(a >> 3)
			rep.Site = siteName(a >> 1 & 3)
		}
		break
	}
	w.warnings.Inc()
	w.count.Add(1)
	w.ring.Instant(w.nStall, age)
	if w.cfg.OnStall != nil {
		w.cfg.OnStall(rep)
	}
}
