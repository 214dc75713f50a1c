package main

import (
	"time"
)

// probeNodes is the size of the reference kernel's tree and table.
const probeNodes = 1 << 14

// pnode is a node of the reference kernel's search tree.
type pnode struct {
	left, right *pnode
	key         uint64
	name        string
}

var probeSink int

// probeKernel is a fixed piece of work in the shape of the program's own
// (small pointer-linked nodes, a hash table keyed by them, garbage for the
// collector), owned by the benchmark so that no change to the program
// changes it. It returns its process CPU time.
func probeKernel() time.Duration {
	start := cpuNow()
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	table := make(map[uint64]*pnode)
	var root *pnode
	for i := 0; i < probeNodes; i++ {
		n := &pnode{key: next() >> 16}
		n.name = string(rune('a' + n.key%26))
		table[n.key] = n
		at := &root
		for *at != nil {
			if n.key < (*at).key {
				at = &(*at).left
			} else {
				at = &(*at).right
			}
		}
		*at = n
	}
	hits := 0
	for i := 0; i < probeNodes; i++ {
		if n := table[next()>>16]; n != nil {
			hits++
		}
	}
	var walk func(n *pnode) int
	walk = func(n *pnode) int {
		if n == nil {
			return 0
		}
		return walk(n.left) + walk(n.right) + len(n.name)
	}
	probeSink += hits + walk(root)
	return cpuNow() - start
}

const (
	// probeEvery is how often, in run time, a measured run runs the kernel.
	probeEvery = 50 * time.Millisecond
	// probeRef is the kernel's fastest CPU time on a quiet host, a 2-vCPU
	// Xeon virtual machine. The declared times are scaled to it.
	probeRef = 5 * time.Millisecond
)

// hostProbe runs the reference kernel between the measured calls and keeps
// its fastest CPU time: how fast the host runs the benchmark's own fixed
// work while the run measures the program's. The CPU time of the same work
// moves with what the host's other guests do to its shared caches and
// memory bus, by a third within minutes on a 2-vCPU virtual machine; it
// moves the kernel's time with it, so the ratio of the two does not.
type hostProbe struct {
	last time.Time
	best time.Duration
	n    int
}

// host is the process's probe: one process measures one part of a run.
var host hostProbe

// run runs the kernel once and returns its CPU time.
func (p *hostProbe) run() time.Duration {
	d := probeKernel()
	if p.n == 0 || d < p.best {
		p.best = d
	}
	p.n++
	p.last = time.Now()
	return d
}

// maybe runs the kernel if probeEvery has passed since it last ran.
func (p *hostProbe) maybe() {
	if time.Since(p.last) >= probeEvery {
		p.run()
	}
}

// scale is the factor that takes a CPU time measured in this process to
// the reference host: probeRef over the kernel's fastest time.
func (p *hostProbe) scale() float64 {
	if p.n == 0 {
		p.run()
	}
	return float64(probeRef) / float64(p.best)
}
