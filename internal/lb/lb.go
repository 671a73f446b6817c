// Package lb implements the HAProxy-substitute load balancer (paper
// Section IV-A): it dispatches incoming requests across a dynamic set of
// backend servers using either round-robin or least-connection policy, and
// supports adding and removing backends at runtime as the tier scales.
// The paper's deployment uses leastconn; both are provided so the ablation
// bench can compare them.
package lb

import (
	"fmt"

	"conscale/internal/server"
)

// Policy selects the dispatch algorithm.
type Policy int

// Supported policies.
const (
	RoundRobin Policy = iota
	LeastConn
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "roundrobin"
	case LeastConn:
		return "leastconn"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

type backend struct {
	name     string
	svc      server.Service
	inFlight int
}

// Balancer dispatches requests across backends. It satisfies
// server.Service, so a balancer can stand wherever a single server can.
// Like the rest of the simulator it is single-goroutine.
type Balancer struct {
	name     string
	policy   Policy
	backends []*backend
	next     int // round-robin cursor

	total    uint64
	rejected uint64
}

// New returns an empty balancer with the given policy.
func New(name string, policy Policy) *Balancer {
	return &Balancer{name: name, policy: policy}
}

// Name returns the balancer's identity.
func (b *Balancer) Name() string { return b.name }

// Policy returns the dispatch policy.
func (b *Balancer) Policy() Policy { return b.policy }

// Add registers a backend. Adding a duplicate name panics: the cluster
// manager guarantees unique VM names, so a duplicate is a wiring bug.
func (b *Balancer) Add(name string, svc server.Service) {
	for _, be := range b.backends {
		if be.name == name {
			panic("lb: duplicate backend " + name)
		}
	}
	b.backends = append(b.backends, &backend{name: name, svc: svc})
}

// Remove unregisters a backend and reports whether it was present.
// In-flight requests on the backend finish normally; only new dispatch
// stops (connection draining).
func (b *Balancer) Remove(name string) bool {
	for i, be := range b.backends {
		if be.name == name {
			b.backends = append(b.backends[:i], b.backends[i+1:]...)
			if b.next > i {
				b.next--
			}
			if len(b.backends) > 0 {
				b.next %= len(b.backends)
			} else {
				b.next = 0
			}
			return true
		}
	}
	return false
}

// Len returns the number of registered backends.
func (b *Balancer) Len() int { return len(b.backends) }

// Backends returns the registered backend names in dispatch order.
func (b *Balancer) Backends() []string {
	out := make([]string, len(b.backends))
	for i, be := range b.backends {
		out[i] = be.name
	}
	return out
}

// InFlight returns the balancer's view of a backend's outstanding requests
// (-1 if the backend is unknown).
func (b *Balancer) InFlight(name string) int {
	for _, be := range b.backends {
		if be.name == name {
			return be.inFlight
		}
	}
	return -1
}

// Stats returns total dispatched and rejected (no-backend) request counts.
func (b *Balancer) Stats() (total, rejected uint64) { return b.total, b.rejected }

// Submit implements server.Service: it picks a backend per the policy and
// forwards the request, tracking per-backend in-flight counts for
// leastconn. With no backends the request fails immediately.
func (b *Balancer) Submit(req *server.Request) {
	b.total++
	be := b.pick()
	if be == nil {
		b.rejected++
		done := req.Done
		req.Done = nil
		done(false)
		return
	}
	req.Span.NotePick(b.name, be.inFlight)
	be.inFlight++
	req.PushDone(release, be)
	be.svc.Submit(req)
}

// release is the completion handler Submit pushes on every dispatched
// request: the backend has one request fewer in flight.
func release(arg any, _ *server.Request, _ bool) { arg.(*backend).inFlight-- }

func (b *Balancer) pick() *backend {
	if len(b.backends) == 0 {
		return nil
	}
	switch b.policy {
	case LeastConn:
		best := b.backends[0]
		for _, be := range b.backends[1:] {
			if be.inFlight < best.inFlight {
				best = be
			}
		}
		return best
	default: // RoundRobin
		be := b.backends[b.next%len(b.backends)]
		b.next = (b.next + 1) % len(b.backends)
		return be
	}
}
