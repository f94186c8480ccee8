package core

import (
	"fmt"
	"strconv"
	"strings"
)

// ReplicationVector encodes the desired number of block replicas per
// storage tier into a single 64-bit word (paper §2.3). The vector holds
// five fields — ⟨Memory, SSD, HDD, Remote, Unspecified⟩ — of 12 bits
// each, so every field can count up to 4095 replicas. The "Unspecified"
// field requests replicas whose tier is chosen automatically by the
// data placement policy.
//
// A vector fully determines the move/copy/delete semantics of
// SetReplication: diffing the old and the new vector yields per-tier
// additions and removals (see Diff).
//
// The zero ReplicationVector requests no replicas and is invalid for
// file creation.
type ReplicationVector uint64

const (
	repVectorFieldBits = 12
	repVectorFieldMask = (1 << repVectorFieldBits) - 1

	// MaxReplicasPerTier is the largest per-tier replica count a
	// replication vector can represent.
	MaxReplicasPerTier = repVectorFieldMask
)

// NewReplicationVector builds a vector from per-tier counts
// ⟨memory, ssd, hdd, remote, unspecified⟩. Counts above
// MaxReplicasPerTier are capped.
func NewReplicationVector(memory, ssd, hdd, remote, unspecified int) ReplicationVector {
	var v ReplicationVector
	v = v.WithTier(TierMemory, memory).
		WithTier(TierSSD, ssd).
		WithTier(TierHDD, hdd).
		WithTier(TierRemote, remote).
		WithTier(TierUnspecified, unspecified)
	return v
}

// ReplicationVectorFromFactor converts a legacy HDFS replication factor
// r into the equivalent vector ⟨0,0,0,0,r⟩, preserving backwards
// compatibility with the scalar API (paper §2.3).
func ReplicationVectorFromFactor(r int) ReplicationVector {
	return NewReplicationVector(0, 0, 0, 0, r)
}

// Tier returns the replica count requested for tier t.
func (v ReplicationVector) Tier(t StorageTier) int {
	return int(v>>(repVectorFieldBits*uint(t))) & repVectorFieldMask
}

// WithTier returns a copy of v with tier t's count set to n.
// Negative n is treated as zero; n above MaxReplicasPerTier is capped.
func (v ReplicationVector) WithTier(t StorageTier, n int) ReplicationVector {
	if n < 0 {
		n = 0
	}
	if n > MaxReplicasPerTier {
		n = MaxReplicasPerTier
	}
	shift := repVectorFieldBits * uint(t)
	v &^= ReplicationVector(repVectorFieldMask) << shift
	v |= ReplicationVector(n) << shift
	return v
}

// Memory returns the replica count for the memory tier.
func (v ReplicationVector) Memory() int { return v.Tier(TierMemory) }

// SSD returns the replica count for the SSD tier.
func (v ReplicationVector) SSD() int { return v.Tier(TierSSD) }

// HDD returns the replica count for the HDD tier.
func (v ReplicationVector) HDD() int { return v.Tier(TierHDD) }

// Remote returns the replica count for the remote tier.
func (v ReplicationVector) Remote() int { return v.Tier(TierRemote) }

// Unspecified returns the count of replicas whose tier is chosen by the
// placement policy.
func (v ReplicationVector) Unspecified() int { return v.Tier(TierUnspecified) }

// Total returns the total number of replicas requested across all
// tiers, including unspecified ones.
func (v ReplicationVector) Total() int {
	n := 0
	for t := TierMemory; t <= TierUnspecified; t++ {
		n += v.Tier(t)
	}
	return n
}

// IsZero reports whether the vector requests no replicas at all.
func (v ReplicationVector) IsZero() bool { return v.Total() == 0 }

// PinnedTiers expands the concrete-tier fields into a flat list of
// tiers, one entry per pinned replica, ordered fastest tier first.
// Unspecified replicas are appended as TierUnspecified entries, so the
// result always has length v.Total(). This is the iteration order used
// by the MOOP data placement policy (paper Algorithm 2).
func (v ReplicationVector) PinnedTiers() []StorageTier {
	out := make([]StorageTier, 0, v.Total())
	for t := TierMemory; t < StorageTier(NumTiers); t++ {
		for i := 0; i < v.Tier(t); i++ {
			out = append(out, t)
		}
	}
	for i := 0; i < v.Unspecified(); i++ {
		out = append(out, TierUnspecified)
	}
	return out
}

// Diff computes the per-tier replica deltas needed to transform vector
// v into vector want. Positive entries are replicas to add on that
// tier, negative entries replicas to remove. Unspecified counts are
// compared as-is: deciding which concrete tier serves an unspecified
// request is the placement policy's job, not the codec's.
func (v ReplicationVector) Diff(want ReplicationVector) map[StorageTier]int {
	d := make(map[StorageTier]int)
	for t := TierMemory; t <= TierUnspecified; t++ {
		if delta := want.Tier(t) - v.Tier(t); delta != 0 {
			d[t] = delta
		}
	}
	return d
}

// String renders the vector in the paper's ⟨M,S,H,R,U⟩ notation, e.g.
// "<1,0,2,0,0>".
func (v ReplicationVector) String() string {
	return fmt.Sprintf("<%d,%d,%d,%d,%d>",
		v.Memory(), v.SSD(), v.HDD(), v.Remote(), v.Unspecified())
}

// ParseReplicationVector parses the ⟨M,S,H,R,U⟩ notation produced by
// String. Both ASCII angle brackets and the typographic ⟨⟩ pair are
// accepted, as is a bare comma-separated list. Shorter lists are
// right-padded with zeros, so "1,0,2" means ⟨1,0,2,0,0⟩.
func ParseReplicationVector(s string) (ReplicationVector, error) {
	s = strings.TrimSpace(s)
	for _, cut := range []string{"<", ">", "⟨", "⟩"} {
		s = strings.ReplaceAll(s, cut, "")
	}
	parts := strings.Split(s, ",")
	if len(parts) > NumTiers+1 {
		return 0, fmt.Errorf("core: replication vector %q has %d fields, want at most %d", s, len(parts), NumTiers+1)
	}
	var counts [NumTiers + 1]int
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return 0, fmt.Errorf("core: replication vector field %d: %w", i, err)
		}
		if n < 0 || n > MaxReplicasPerTier {
			return 0, fmt.Errorf("core: replication vector field %d out of range: %d", i, n)
		}
		counts[i] = n
	}
	return NewReplicationVector(counts[0], counts[1], counts[2], counts[3], counts[4]), nil
}

// Validate checks that the vector is usable for a file: it must request
// at least one replica.
func (v ReplicationVector) Validate() error {
	if v.IsZero() {
		return fmt.Errorf("core: replication vector %s requests no replicas", v)
	}
	return nil
}
