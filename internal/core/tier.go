// Package core defines the fundamental types shared by every OctopusFS
// component: storage tiers, the 64-bit replication vector, block and
// worker identities, block locations, and storage-tier reports.
//
// The types mirror the concepts of the SIGMOD'17 paper "OctopusFS: A
// Distributed File System with Tiered Storage Management": files are
// split into large blocks, each block is replicated onto storage media
// that belong to Workers, and the same type of media across Workers is
// logically grouped into a virtual storage tier.
package core

import (
	"fmt"
	"strings"
)

// StorageTier identifies a virtual storage tier. A tier groups storage
// media with similar I/O characteristics across all Workers in the
// cluster (paper §2.2). Tiers are ordered fastest-first: lower numeric
// values denote faster media.
type StorageTier uint8

// The canonical storage tiers. TierUnspecified is the pseudo-tier "U"
// used inside replication vectors to request replicas whose tier is
// chosen automatically by the data placement policy (paper §2.3).
const (
	TierMemory      StorageTier = iota // volatile DRAM-backed storage
	TierSSD                            // flash-based solid state drives
	TierHDD                            // rotational hard disk drives
	TierRemote                         // network-attached or cloud storage
	TierUnspecified                    // placement chosen by the policy

	// NumTiers is the number of concrete (placeable) storage tiers.
	NumTiers = int(TierUnspecified)
)

var tierNames = [...]string{"MEMORY", "SSD", "HDD", "REMOTE", "UNSPECIFIED"}

// String returns the canonical upper-case tier name.
func (t StorageTier) String() string {
	if int(t) < len(tierNames) {
		return tierNames[t]
	}
	return fmt.Sprintf("TIER(%d)", uint8(t))
}

// Valid reports whether t is a concrete, placeable storage tier.
func (t StorageTier) Valid() bool { return t < StorageTier(NumTiers) }

// ParseTier converts a tier name (case-insensitive; "MEM"/"MEMORY",
// "SSD", "HDD"/"DISK", "REMOTE", "U"/"UNSPECIFIED") to a StorageTier.
func ParseTier(s string) (StorageTier, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "MEM", "MEMORY", "RAM", "M":
		return TierMemory, nil
	case "SSD", "FLASH", "S":
		return TierSSD, nil
	case "HDD", "DISK", "H":
		return TierHDD, nil
	case "REMOTE", "NAS", "R":
		return TierRemote, nil
	case "U", "UNSPECIFIED", "ANY":
		return TierUnspecified, nil
	}
	return 0, fmt.Errorf("core: unknown storage tier %q", s)
}

// Tiers returns the concrete tiers ordered fastest-first. The returned
// slice is freshly allocated and may be modified by the caller.
func Tiers() []StorageTier {
	ts := make([]StorageTier, NumTiers)
	for i := range ts {
		ts[i] = StorageTier(i)
	}
	return ts
}
