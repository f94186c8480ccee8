package topology

import (
	"sync"
	"testing"
)

func TestDistance(t *testing.T) {
	a := Location{Rack: "/r1", Node: "n1"}
	b := Location{Rack: "/r1", Node: "n2"}
	c := Location{Rack: "/r2", Node: "n3"}
	tests := []struct {
		x, y Location
		want int
	}{
		{a, a, DistanceLocal},
		{a, b, DistanceSameRack},
		{a, c, DistanceOffRack},
		{b, c, DistanceOffRack},
	}
	for _, tt := range tests {
		if got := Distance(tt.x, tt.y); got != tt.want {
			t.Errorf("Distance(%v, %v) = %d, want %d", tt.x, tt.y, got, tt.want)
		}
		if got := Distance(tt.y, tt.x); got != tt.want {
			t.Errorf("Distance(%v, %v) = %d, want %d (symmetry)", tt.y, tt.x, got, tt.want)
		}
	}
}

func TestMapAddAndLookup(t *testing.T) {
	m := NewMap()
	m.Add("n1", "/r1")
	m.Add("n2", "r1") // missing slash is normalised
	m.Add("n3", "/r2")
	m.Add("n4", "") // empty rack -> default

	if got := m.RackOf("n1"); got != "/r1" {
		t.Errorf("RackOf(n1) = %q, want /r1", got)
	}
	if got := m.RackOf("n2"); got != "/r1" {
		t.Errorf("RackOf(n2) = %q, want /r1", got)
	}
	if got := m.RackOf("n4"); got != DefaultRack {
		t.Errorf("RackOf(n4) = %q, want %q", got, DefaultRack)
	}
	if got := m.RackOf("unknown"); got != DefaultRack {
		t.Errorf("RackOf(unknown) = %q, want %q", got, DefaultRack)
	}
	if got := m.Distance("n1", "n2"); got != DistanceSameRack {
		t.Errorf("Distance(n1,n2) = %d, want %d", got, DistanceSameRack)
	}
	if got := m.Distance("n1", "n3"); got != DistanceOffRack {
		t.Errorf("Distance(n1,n3) = %d, want %d", got, DistanceOffRack)
	}
	if got := m.Distance("n1", "n1"); got != DistanceLocal {
		t.Errorf("Distance(n1,n1) = %d, want %d", got, DistanceLocal)
	}

	if got, want := m.NumRacks(), 3; got != want {
		t.Errorf("NumRacks() = %d, want %d", got, want)
	}
	if got, want := m.numNodes(), 4; got != want {
		t.Errorf("numNodes() = %d, want %d", got, want)
	}

	racks := m.sortedRacks()
	if len(racks) != 3 || racks[0] != DefaultRack || racks[1] != "/r1" || racks[2] != "/r2" {
		t.Errorf("Racks() = %v, want sorted [%s /r1 /r2]", racks, DefaultRack)
	}

	nodes := m.nodesInRack("/r1")
	if len(nodes) != 2 || nodes[0] != "n1" || nodes[1] != "n2" {
		t.Errorf("nodesInRack(/r1) = %v, want [n1 n2]", nodes)
	}
}

func TestMapReassignAndRemove(t *testing.T) {
	m := NewMap()
	m.Add("n1", "/r1")
	m.Add("n1", "/r2") // move rack
	if got := m.RackOf("n1"); got != "/r2" {
		t.Errorf("after reassign: RackOf(n1) = %q, want /r2", got)
	}
	if got := m.NumRacks(); got != 1 {
		t.Errorf("after reassign: NumRacks() = %d, want 1 (old rack emptied)", got)
	}
	m.Add("n1", "/r2") // idempotent re-add must not duplicate
	if got := len(m.nodesInRack("/r2")); got != 1 {
		t.Errorf("after duplicate add: rack members = %d, want 1", got)
	}

	m.Remove("n1")
	if got := m.numNodes(); got != 0 {
		t.Errorf("after remove: numNodes() = %d, want 0", got)
	}
	if got := m.NumRacks(); got != 0 {
		t.Errorf("after remove: NumRacks() = %d, want 0", got)
	}
	m.Remove("n1") // removing twice is a no-op
}

func TestNodesInRackIsCopy(t *testing.T) {
	m := NewMap()
	m.Add("n1", "/r1")
	nodes := m.nodesInRack("/r1")
	nodes[0] = "mutated"
	if got := m.nodesInRack("/r1")[0]; got != "n1" {
		t.Errorf("internal state mutated through returned slice: %q", got)
	}
}

func TestNormalizeRack(t *testing.T) {
	tests := []struct{ in, want string }{
		{"", DefaultRack},
		{"  ", DefaultRack},
		{"r1", "/r1"},
		{"/r1", "/r1"},
	}
	for _, tt := range tests {
		if got := NormalizeRack(tt.in); got != tt.want {
			t.Errorf("NormalizeRack(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := Validate("/rack-1"); err != nil {
		t.Errorf("Validate(/rack-1) = %v, want nil", err)
	}
	if err := Validate("/rack 1"); err == nil {
		t.Error("Validate(rack with space): got nil, want error")
	}
}

func TestMapConcurrentAccess(t *testing.T) {
	m := NewMap()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			names := []string{"a", "b", "c", "d"}
			for j := 0; j < 200; j++ {
				n := names[(i+j)%len(names)]
				m.Add(n, "/r1")
				m.RackOf(n)
				m.Distance("a", n)
				m.sortedRacks()
				if j%10 == 0 {
					m.Remove(n)
				}
			}
		}(i)
	}
	wg.Wait()
}
