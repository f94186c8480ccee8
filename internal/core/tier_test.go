package core

import "testing"

func TestTierString(t *testing.T) {
	tests := []struct {
		tier StorageTier
		want string
	}{
		{TierMemory, "MEMORY"},
		{TierSSD, "SSD"},
		{TierHDD, "HDD"},
		{TierRemote, "REMOTE"},
		{TierUnspecified, "UNSPECIFIED"},
		{StorageTier(99), "TIER(99)"},
	}
	for _, tt := range tests {
		if got := tt.tier.String(); got != tt.want {
			t.Errorf("StorageTier(%d).String() = %q, want %q", tt.tier, got, tt.want)
		}
	}
}

func TestParseTier(t *testing.T) {
	tests := []struct {
		in      string
		want    StorageTier
		wantErr bool
	}{
		{"MEMORY", TierMemory, false},
		{"mem", TierMemory, false},
		{"  ram ", TierMemory, false},
		{"M", TierMemory, false},
		{"SSD", TierSSD, false},
		{"flash", TierSSD, false},
		{"hdd", TierHDD, false},
		{"Disk", TierHDD, false},
		{"remote", TierRemote, false},
		{"NAS", TierRemote, false},
		{"u", TierUnspecified, false},
		{"any", TierUnspecified, false},
		{"tape", 0, true},
		{"", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseTier(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseTier(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseTier(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestTierValid(t *testing.T) {
	for _, tier := range Tiers() {
		if !tier.Valid() {
			t.Errorf("Tiers() returned invalid tier %v", tier)
		}
	}
	if TierUnspecified.Valid() {
		t.Error("TierUnspecified.Valid() = true, want false")
	}
	if StorageTier(200).Valid() {
		t.Error("StorageTier(200).Valid() = true, want false")
	}
}

func TestTiersOrderedFastestFirst(t *testing.T) {
	ts := Tiers()
	if len(ts) != NumTiers {
		t.Fatalf("len(Tiers()) = %d, want %d", len(ts), NumTiers)
	}
	if ts[0] != TierMemory || ts[len(ts)-1] != TierRemote {
		t.Errorf("Tiers() = %v, want memory first and remote last", ts)
	}
	// Mutating the returned slice must not affect future calls.
	ts[0] = TierRemote
	if Tiers()[0] != TierMemory {
		t.Error("Tiers() returned a shared slice; mutation leaked")
	}
}
