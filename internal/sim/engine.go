// Package sim implements a deterministic flow-level simulator of an
// OctopusFS cluster. Transfers are modelled as flows through capacity
// resources (media write/read bandwidth, per-node NIC in/out), with
// every resource's capacity split equally among the flows crossing it
// — exactly the bandwidth-sharing model the paper uses to motivate its
// placement and retrieval policies (§3.2, Eq. 12). The simulator
// drives the *same* policy implementations as the live master, so the
// benchmark harness reproduces the paper's experiments by construction
// rather than by re-implementation.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Resource is a capacity-constrained stage (a media's write or read
// bandwidth, or a NIC direction). Flows crossing a resource share its
// capacity equally.
type Resource struct {
	Name     string
	Capacity float64 // MB/s
	flows    int     // active flows crossing this resource
}

// Load returns the number of active flows on the resource.
func (r *Resource) Load() int { return r.flows }

// Flow is one in-flight transfer: size bytes through a fixed set of
// resources. Rate = min over resources of capacity/flows.
type Flow struct {
	name      string
	seq       int64   // start order; ties completions between same-named flows
	remaining float64 // MB still to move
	resources []*Resource
	onDone    func(e *Engine)
	fixedRate float64 // >0 models a fixed-rate stage (e.g. compute)
	rate      float64 // current rate, recomputed every step
}

// Name returns the flow's diagnostic label.
func (f *Flow) Name() string { return f.name }

// Engine is the discrete-event loop: it advances simulated time from
// flow completion to flow completion, recomputing equal-share rates at
// every event.
type Engine struct {
	now   float64 // seconds
	flows map[*Flow]struct{}
	seq   int64 // flows started so far
}

// NewEngine returns an empty engine at t=0.
func NewEngine() *Engine {
	return &Engine{flows: make(map[*Flow]struct{})}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// StartFlow launches a transfer of sizeMB through the given resources;
// onDone (may be nil) runs at completion and may start new flows.
func (e *Engine) StartFlow(name string, sizeMB float64, resources []*Resource, onDone func(*Engine)) *Flow {
	f := &Flow{name: name, remaining: sizeMB, resources: resources, onDone: onDone}
	if sizeMB <= 0 {
		f.remaining = 0
	}
	for _, r := range resources {
		r.flows++
	}
	e.add(f)
	return f
}

// StartDelay schedules onDone after a fixed simulated duration,
// modelling compute phases that consume no I/O resources.
func (e *Engine) StartDelay(name string, seconds float64, onDone func(*Engine)) *Flow {
	f := &Flow{name: name, remaining: seconds, fixedRate: 1, onDone: onDone}
	if seconds <= 0 {
		f.remaining = 0
	}
	e.add(f)
	return f
}

func (e *Engine) add(f *Flow) {
	e.seq++
	f.seq = e.seq
	e.flows[f] = struct{}{}
}

// rateOf computes a flow's current equal-share rate.
func rateOf(f *Flow) float64 {
	if f.fixedRate > 0 {
		return f.fixedRate
	}
	rate := math.Inf(1)
	for _, r := range f.resources {
		if r.flows <= 0 {
			continue
		}
		share := r.Capacity / float64(r.flows)
		if share < rate {
			rate = share
		}
	}
	if math.IsInf(rate, 1) {
		return math.MaxFloat64 // resource-less flow finishes instantly
	}
	return rate
}

const timeEpsilon = 1e-12

// Run advances the simulation until no flows remain, returning the
// elapsed simulated seconds. It fails if the system deadlocks (a flow
// with zero rate).
func (e *Engine) Run() (float64, error) {
	start := e.now
	for len(e.flows) > 0 {
		// Compute rates and the earliest completion.
		dt := math.Inf(1)
		for f := range e.flows {
			f.rate = rateOf(f)
			if f.rate <= 0 {
				return 0, fmt.Errorf("sim: flow %q stalled at t=%.3fs", f.name, e.now)
			}
			if t := f.remaining / f.rate; t < dt {
				dt = t
			}
		}
		if dt < 0 {
			dt = 0
		}
		// Advance every flow by dt.
		e.now += dt
		var completed []*Flow
		for f := range e.flows {
			f.remaining -= f.rate * dt
			if f.remaining <= f.rate*timeEpsilon+1e-9 {
				f.remaining = 0
				completed = append(completed, f)
			}
		}
		// Deterministic completion order: by name, then by start order.
		slices.SortFunc(completed, func(a, b *Flow) int {
			return cmp.Or(strings.Compare(a.name, b.name), cmp.Compare(a.seq, b.seq))
		})
		for _, f := range completed {
			delete(e.flows, f)
			for _, r := range f.resources {
				r.flows--
			}
		}
		for _, f := range completed {
			if f.onDone != nil {
				f.onDone(e)
			}
		}
	}
	return e.now - start, nil
}

// Active returns the number of in-flight flows.
func (e *Engine) Active() int { return len(e.flows) }
