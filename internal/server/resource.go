// Package server models a component server (one VM) of an n-tier
// application: a bounded thread pool admitting requests, FCFS scheduling of
// CPU bursts over the VM's cores, an optional disk, synchronous downstream
// calls that hold the caller's thread (the paper's thread-based RPC), and a
// multithreading-overhead model that inflates CPU demand at high
// concurrency. Together these produce the three-stage
// concurrency-throughput curve of the SCT model (paper Section III-A).
package server

import (
	"math"

	"conscale/internal/des"
	"conscale/internal/metrics"
)

// ProcPool is a multi-server FCFS resource: n identical channels serving
// bursts to completion in submission order. It models both the VM's vCPU
// set (n = cores) and its disk (n = I/O channels).
type ProcPool struct {
	eng      *des.Engine
	channels int
	busy     int
	queue    ring[burst]
	util     *metrics.TimeWeighted

	// idle recycles the records of bursts in service: at most one per
	// channel is ever out.
	idle []*running

	totalBusy float64 // accumulated busy-channel-seconds (for tests)
}

// burst is a queued demand: its duration and the callback, as a
// (handler, argument) pair, to run when it completes.
type burst struct {
	duration des.Time
	h        func(arg any)
	arg      any
}

// running is a burst in service — the argument of its completion event.
type running struct {
	pool *ProcPool
	h    func(arg any)
	arg  any
}

// runFunc is the handler behind the closure-taking entry points
// (ProcPool.Demand, ConnPool.Acquire): the argument is the closure.
func runFunc(arg any) { arg.(func())() }

// NewProcPool returns a pool with the given number of channels, reporting
// utilization into a window of utilWindow (1 s for the controllers).
func NewProcPool(eng *des.Engine, channels int, utilWindow des.Time) *ProcPool {
	if channels <= 0 {
		panic("server: non-positive channel count")
	}
	return &ProcPool{
		eng:      eng,
		channels: channels,
		util:     metrics.NewTimeWeighted(utilWindow),
	}
}

// Channels returns the current channel count.
func (p *ProcPool) Channels() int { return p.channels }

// SetChannels changes the channel count at runtime (vertical scaling).
// Growth dispatches queued bursts immediately; shrinkage lets running
// bursts finish (busy may exceed channels transiently).
func (p *ProcPool) SetChannels(n int) {
	if n <= 0 {
		panic("server: non-positive channel count")
	}
	p.channels = n
	p.dispatch()
	p.meter()
}

// Demand requests a burst of d seconds of service; done fires when the
// burst completes. Zero-duration bursts complete on the next event.
func (p *ProcPool) Demand(d des.Time, done func()) { p.demand(d, runFunc, done) }

// demand is Demand with the completion callback as a (handler, argument)
// pair, so the server's request path queues no closure.
func (p *ProcPool) demand(d des.Time, h func(arg any), arg any) {
	if d < 0 {
		panic("server: negative demand")
	}
	p.queue.push(burst{duration: d, h: h, arg: arg})
	p.dispatch()
}

func (p *ProcPool) dispatch() {
	for p.busy < p.channels && p.queue.len() > 0 {
		b := p.queue.pop()
		p.busy++
		p.meter()
		p.totalBusy += float64(b.duration)
		var r *running
		if n := len(p.idle); n > 0 {
			r = p.idle[n-1]
			p.idle = p.idle[:n-1]
		} else {
			r = &running{pool: p}
		}
		r.h, r.arg = b.h, b.arg
		p.eng.AfterArg(b.duration, burstEnd, r)
	}
}

// burstEnd is the event that completes a burst in service.
func burstEnd(arg any) {
	r := arg.(*running)
	p, h, a := r.pool, r.h, r.arg
	r.h, r.arg = nil, nil
	p.idle = append(p.idle, r)
	p.busy--
	p.meter()
	h(a)
	p.dispatch()
}

func (p *ProcPool) meter() {
	u := float64(p.busy) / float64(p.channels)
	if u > 1 {
		u = 1
	}
	p.util.Set(p.eng.Now(), u)
}

// Utilization returns the mean utilization (0..1) of the current window up
// to now — the 1-second CPU signal the scaling controllers threshold on.
func (p *ProcPool) Utilization() float64 { return p.util.WindowMean(p.eng.Now()) }

// FlushUtil drains completed utilization windows up to now.
func (p *ProcPool) FlushUtil() []metrics.TWSample { return p.util.Flush(p.eng.Now()) }

// QueueLen returns the number of waiting bursts (diagnostics).
func (p *ProcPool) QueueLen() int { return p.queue.len() }

// Busy returns the number of busy channels.
func (p *ProcPool) Busy() int { return p.busy }

// TotalBusySeconds returns accumulated busy channel-seconds.
func (p *ProcPool) TotalBusySeconds() float64 { return p.totalBusy }

// ConnPool is a counted semaphore with FIFO waiters: the app server's DB
// connection pool, whose size caps the concurrency the app tier can impose
// on the downstream DB tier (the paper's #DBconnections soft resource).
type ConnPool struct {
	limit   int
	inUse   int
	waiters ring[waiter]
}

// waiter is a queued acquirer: the (handler, argument) pair to call with
// the connection granted.
type waiter struct {
	h   func(arg any)
	arg any
}

// NewConnPool returns a pool with the given size.
func NewConnPool(limit int) *ConnPool {
	if limit <= 0 {
		panic("server: non-positive pool limit")
	}
	return &ConnPool{limit: limit}
}

// Limit returns the current pool size.
func (c *ConnPool) Limit() int { return c.limit }

// InUse returns the number of held connections.
func (c *ConnPool) InUse() int { return c.inUse }

// Waiting returns the number of queued acquirers.
func (c *ConnPool) Waiting() int { return c.waiters.len() }

// SetLimit resizes the pool at runtime. Growth admits waiters immediately;
// shrinkage takes effect as connections are released.
func (c *ConnPool) SetLimit(n int) {
	if n <= 0 {
		panic("server: non-positive pool limit")
	}
	c.limit = n
	c.admit()
}

// Acquire grants a connection to fn, immediately if one is free, otherwise
// when a holder releases. fn must eventually lead to a Release call.
func (c *ConnPool) Acquire(fn func()) { c.acquire(runFunc, fn) }

// acquire is Acquire with the grant callback as a (handler, argument)
// pair.
func (c *ConnPool) acquire(h func(arg any), arg any) {
	c.waiters.push(waiter{h: h, arg: arg})
	c.admit()
}

// Release returns a connection to the pool.
func (c *ConnPool) Release() {
	if c.inUse <= 0 {
		panic("server: Release without Acquire")
	}
	c.inUse--
	c.admit()
}

func (c *ConnPool) admit() {
	for c.inUse < c.limit && c.waiters.len() > 0 {
		w := c.waiters.pop()
		c.inUse++
		w.h(w.arg)
	}
}

// Overhead is the multithreading-overhead model: the factor by which a
// server's CPU demand is inflated as a function of its active thread count.
// It models the lock contention, cache-coherence crosstalk, context
// switching, and GC effects the paper cites as the cause of the descending
// stage ([10], [19]-[21]).
type Overhead struct {
	// Alpha scales the penalty per excess thread.
	Alpha float64
	// KneePerCore is the active-thread count per core below which the
	// penalty is zero.
	KneePerCore float64
	// Power is the super-linear exponent of the penalty.
	Power float64
}

// DefaultOverhead returns the model used across the reproduction: no
// penalty below 22 threads/core, then a gently super-linear climb that
// roughly halves throughput by ~60 excess threads — matching the decline
// slopes of the paper's Fig. 6a/7 scatter plots.
func DefaultOverhead() Overhead {
	return Overhead{Alpha: 0.015, KneePerCore: 22, Power: 1.15}
}

// Factor returns the CPU inflation (>= 1) at the given active thread count
// and core count.
func (o Overhead) Factor(active, cores int) float64 {
	knee := o.KneePerCore * float64(cores)
	excess := float64(active) - knee
	if excess <= 0 || o.Alpha <= 0 {
		return 1
	}
	return 1 + o.Alpha*pow(excess, o.Power)
}

// pow is a small positive-base power; math.Pow is avoided in the hot path
// only when the exponent is 1.
func pow(base, exp float64) float64 {
	if exp == 1 {
		return base
	}
	return math.Pow(base, exp)
}
