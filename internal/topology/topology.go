// Package topology models the hierarchical network topology of an
// OctopusFS cluster (paper §3.2). Worker nodes live in racks; the
// distance between two nodes is the number of network hops between
// them in the datacenter tree (0 = same node, 2 = same rack,
// 4 = different racks). Both the data placement and the data retrieval
// policies consult the topology to trade locality against tier speed.
package topology

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// DefaultRack is the rack assigned to nodes registered without an
// explicit network location, matching HDFS's "/default-rack".
const DefaultRack = "/default-rack"

// Network distances between two locations in the two-level
// (datacenter → rack → node) topology used by the paper's evaluation.
const (
	DistanceLocal    = 0 // same node
	DistanceSameRack = 2 // different nodes, same rack
	DistanceOffRack  = 4 // different racks
)

// Location is a node's position in the network tree, e.g. node
// "worker-3.example.com" in rack "/rack-1".
type Location struct {
	Rack string // rack path, e.g. "/rack-1"
	Node string // node name, unique within the cluster
}

// String renders the location as "<rack>/<node>".
func (l Location) String() string { return l.Rack + "/" + l.Node }

// Distance returns the number of network hops between two locations.
func Distance(a, b Location) int {
	switch {
	case a == b:
		return DistanceLocal
	case a.Rack == b.Rack:
		return DistanceSameRack
	default:
		return DistanceOffRack
	}
}

// Map tracks the rack assignment of every registered node. It is safe
// for concurrent use; the master updates it on worker registration and
// the placement policies read it on every block allocation.
type Map struct {
	mu    sync.RWMutex
	nodes map[string]string   // node name -> rack
	racks map[string][]string // rack -> sorted node names
}

// NewMap returns an empty topology map.
func NewMap() *Map {
	return &Map{
		nodes: make(map[string]string),
		racks: make(map[string][]string),
	}
}

// Add registers node in rack, replacing any previous assignment. An
// empty rack means DefaultRack; racks are normalised to a leading "/".
func (m *Map) Add(node, rack string) {
	rack = NormalizeRack(rack)
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.nodes[node]; ok {
		if old == rack {
			return
		}
		m.removeFromRackLocked(node, old)
	}
	m.nodes[node] = rack
	members := append(m.racks[rack], node)
	sort.Strings(members)
	m.racks[rack] = members
}

// Remove deletes a node from the topology. Removing an unknown node is
// a no-op.
func (m *Map) Remove(node string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rack, ok := m.nodes[node]
	if !ok {
		return
	}
	delete(m.nodes, node)
	m.removeFromRackLocked(node, rack)
}

func (m *Map) removeFromRackLocked(node, rack string) {
	members := m.racks[rack]
	for i, n := range members {
		if n == node {
			m.racks[rack] = append(members[:i:i], members[i+1:]...)
			break
		}
	}
	if len(m.racks[rack]) == 0 {
		delete(m.racks, rack)
	}
}

// RackOf returns the rack of a node, or DefaultRack if the node is not
// registered.
func (m *Map) RackOf(node string) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if rack, ok := m.nodes[node]; ok {
		return rack
	}
	return DefaultRack
}

// LocationOf returns the full network location of a node.
func (m *Map) LocationOf(node string) Location {
	return Location{Rack: m.RackOf(node), Node: node}
}

// Distance returns the hop distance between two registered nodes.
// Unregistered nodes are assumed to live in DefaultRack.
func (m *Map) Distance(a, b string) int {
	return Distance(m.LocationOf(a), m.LocationOf(b))
}

// sortedRacks returns the rack paths currently holding at least one
// node, sorted lexicographically.
func (m *Map) sortedRacks() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	racks := make([]string, 0, len(m.racks))
	for r := range m.racks {
		racks = append(racks, r)
	}
	sort.Strings(racks)
	return racks
}

// nodesInRack returns the sorted node names in the given rack.
func (m *Map) nodesInRack(rack string) []string {
	rack = NormalizeRack(rack)
	m.mu.RLock()
	defer m.mu.RUnlock()
	members := m.racks[rack]
	out := make([]string, len(members))
	copy(out, members)
	return out
}

// NumRacks returns the number of non-empty racks. The fault-tolerance
// objective (paper Eq. 5) special-cases single-rack clusters.
func (m *Map) NumRacks() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.racks)
}

// numNodes returns the number of registered nodes.
func (m *Map) numNodes() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.nodes)
}

// NormalizeRack canonicalises a rack path: empty becomes DefaultRack,
// and a missing leading slash is added.
func NormalizeRack(rack string) string {
	rack = strings.TrimSpace(rack)
	if rack == "" {
		return DefaultRack
	}
	if !strings.HasPrefix(rack, "/") {
		rack = "/" + rack
	}
	return rack
}

// Validate checks a rack path for embedded whitespace, which would
// break the textual topology-script format.
func Validate(rack string) error {
	if strings.ContainsAny(rack, " \t\n") {
		return fmt.Errorf("topology: rack path %q contains whitespace", rack)
	}
	return nil
}
