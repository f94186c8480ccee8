package core

import (
	"testing"
	"testing/quick"
)

func TestReplicationVectorRoundTrip(t *testing.T) {
	v := NewReplicationVector(1, 0, 2, 0, 0)
	if got := v.Memory(); got != 1 {
		t.Errorf("Memory() = %d, want 1", got)
	}
	if got := v.SSD(); got != 0 {
		t.Errorf("SSD() = %d, want 0", got)
	}
	if got := v.HDD(); got != 2 {
		t.Errorf("HDD() = %d, want 2", got)
	}
	if got := v.Remote(); got != 0 {
		t.Errorf("Remote() = %d, want 0", got)
	}
	if got := v.Unspecified(); got != 0 {
		t.Errorf("Unspecified() = %d, want 0", got)
	}
	if got := v.Total(); got != 3 {
		t.Errorf("Total() = %d, want 3", got)
	}
}

func TestReplicationVectorFromFactor(t *testing.T) {
	v := ReplicationVectorFromFactor(3)
	if v.Unspecified() != 3 || v.Total() != 3 {
		t.Errorf("ReplicationVectorFromFactor(3) = %s, want <0,0,0,0,3>", v)
	}
}

func TestReplicationVectorString(t *testing.T) {
	v := NewReplicationVector(1, 2, 3, 4, 5)
	if got, want := v.String(), "<1,2,3,4,5>"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestParseReplicationVector(t *testing.T) {
	tests := []struct {
		in      string
		want    ReplicationVector
		wantErr bool
	}{
		{"<1,0,2,0,0>", NewReplicationVector(1, 0, 2, 0, 0), false},
		{"⟨1,0,2,0,0⟩", NewReplicationVector(1, 0, 2, 0, 0), false},
		{"1,0,2", NewReplicationVector(1, 0, 2, 0, 0), false},
		{"0,0,0,0,3", ReplicationVectorFromFactor(3), false},
		{" < 1 , 1 , 1 > ", NewReplicationVector(1, 1, 1, 0, 0), false},
		{"1,2,3,4,5,6", 0, true},
		{"a,b", 0, true},
		{"-1", 0, true},
		{"5000", 0, true},
		{"", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseReplicationVector(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseReplicationVector(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseReplicationVector(%q) = %s, want %s", tt.in, got, tt.want)
		}
	}
}

func TestReplicationVectorWithTierClamps(t *testing.T) {
	v := ReplicationVector(0).WithTier(TierSSD, -5)
	if got := v.SSD(); got != 0 {
		t.Errorf("WithTier(-5): SSD() = %d, want 0", got)
	}
	v = v.WithTier(TierSSD, MaxReplicasPerTier+100)
	if got := v.SSD(); got != MaxReplicasPerTier {
		t.Errorf("WithTier(max+100): SSD() = %d, want %d", got, MaxReplicasPerTier)
	}
}

func TestReplicationVectorDiff(t *testing.T) {
	tests := []struct {
		name     string
		from, to ReplicationVector
		want     map[StorageTier]int
	}{
		{
			name: "move HDD replica to SSD",
			from: NewReplicationVector(1, 0, 2, 0, 0),
			to:   NewReplicationVector(1, 1, 1, 0, 0),
			want: map[StorageTier]int{TierSSD: 1, TierHDD: -1},
		},
		{
			name: "copy to SSD",
			from: NewReplicationVector(1, 0, 2, 0, 0),
			to:   NewReplicationVector(1, 1, 2, 0, 0),
			want: map[StorageTier]int{TierSSD: 1},
		},
		{
			name: "delete in-memory replica",
			from: NewReplicationVector(1, 0, 2, 0, 0),
			to:   NewReplicationVector(0, 0, 2, 0, 0),
			want: map[StorageTier]int{TierMemory: -1},
		},
		{
			name: "no change",
			from: NewReplicationVector(1, 0, 2, 0, 0),
			to:   NewReplicationVector(1, 0, 2, 0, 0),
			want: map[StorageTier]int{},
		},
		{
			name: "unspecified grows",
			from: ReplicationVectorFromFactor(2),
			to:   ReplicationVectorFromFactor(3),
			want: map[StorageTier]int{TierUnspecified: 1},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.from.Diff(tt.to)
			if len(got) != len(tt.want) {
				t.Fatalf("Diff = %v, want %v", got, tt.want)
			}
			for tier, delta := range tt.want {
				if got[tier] != delta {
					t.Errorf("Diff[%v] = %d, want %d", tier, got[tier], delta)
				}
			}
		})
	}
}

func TestPinnedTiers(t *testing.T) {
	v := NewReplicationVector(1, 0, 2, 0, 1)
	got := v.PinnedTiers()
	want := []StorageTier{TierMemory, TierHDD, TierHDD, TierUnspecified}
	if len(got) != len(want) {
		t.Fatalf("PinnedTiers() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("PinnedTiers()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestReplicationVectorValidate(t *testing.T) {
	if err := NewReplicationVector(0, 0, 0, 0, 0).Validate(); err == nil {
		t.Error("Validate() on zero vector: got nil, want error")
	}
	if err := ReplicationVectorFromFactor(1).Validate(); err != nil {
		t.Errorf("Validate() on <0,0,0,0,1>: got %v, want nil", err)
	}
}

// quickVector builds a vector from bounded random counts.
func quickVector(m, s, h, r, u uint16) ReplicationVector {
	cap := func(x uint16) int { return int(x) % (MaxReplicasPerTier + 1) }
	return NewReplicationVector(cap(m), cap(s), cap(h), cap(r), cap(u))
}

func TestQuickRoundTripStringParse(t *testing.T) {
	f := func(m, s, h, r, u uint16) bool {
		v := quickVector(m, s, h, r, u)
		parsed, err := ParseReplicationVector(v.String())
		return err == nil && parsed == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickTotalEqualsSum(t *testing.T) {
	f := func(m, s, h, r, u uint16) bool {
		v := quickVector(m, s, h, r, u)
		sum := v.Memory() + v.SSD() + v.HDD() + v.Remote() + v.Unspecified()
		return v.Total() == sum && len(v.PinnedTiers()) == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDiffIsAntisymmetric(t *testing.T) {
	f := func(m1, s1, h1, r1, u1, m2, s2, h2, r2, u2 uint16) bool {
		a := quickVector(m1, s1, h1, r1, u1)
		b := quickVector(m2, s2, h2, r2, u2)
		ab, ba := a.Diff(b), b.Diff(a)
		if len(ab) != len(ba) {
			return false
		}
		for tier, d := range ab {
			if ba[tier] != -d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickWithTierIsolation(t *testing.T) {
	// Setting one tier's count must not disturb the others.
	f := func(m, s, h, r, u, n uint16) bool {
		v := quickVector(m, s, h, r, u)
		nv := int(n) % (MaxReplicasPerTier + 1)
		w := v.WithTier(TierHDD, nv)
		return w.HDD() == nv &&
			w.Memory() == v.Memory() && w.SSD() == v.SSD() &&
			w.Remote() == v.Remote() && w.Unspecified() == v.Unspecified()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
