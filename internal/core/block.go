package core

import (
	"fmt"
	"hash/crc32"
)

// DefaultBlockSize is the default size into which file content is
// split (paper §2.1: "large blocks, 128MB by default").
const DefaultBlockSize = 128 * 1024 * 1024

// ChunkSize is the checksum granularity of a replica: a block is cut
// into 64 KiB chunks, each with one CRC-32C computed once by the writer,
// stored with the replica and served with the data. One data packet
// carries one chunk (HDFS's .meta checksums, with one chunk per packet).
const ChunkSize = 64 << 10

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChunkSum returns the CRC-32C of p, the checksum of one chunk.
func ChunkSum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// BlockID uniquely identifies a file block within one master's
// namespace. IDs are allocated monotonically by the master.
type BlockID uint64

// String renders the ID in HDFS-like form, e.g. "blk_1042".
func (id BlockID) String() string { return fmt.Sprintf("blk_%d", uint64(id)) }

// GenerationStamp versions a block's content. It is bumped on every
// mutation (e.g. pipeline recovery), letting the master discard
// replicas that predate the latest committed write.
type GenerationStamp uint64

// Block describes one block of a file: its identity, its content
// version, and the number of bytes it holds.
type Block struct {
	ID       BlockID
	GenStamp GenerationStamp
	NumBytes int64
}

// String renders the block as "blk_<id>_<gen> (<bytes>B)".
func (b Block) String() string {
	return fmt.Sprintf("blk_%d_%d (%dB)", uint64(b.ID), uint64(b.GenStamp), b.NumBytes)
}

// WorkerID uniquely identifies a Worker in the cluster. It is assigned
// at registration and stable across restarts of the same worker
// configuration (typically "host:port" of the worker's data endpoint).
type WorkerID string

// StorageID uniquely identifies one storage media instance (e.g. a
// specific HDD) attached to a specific Worker. The placement policies
// select individual media, not just workers, so every replica location
// is a (worker, media) pair.
type StorageID string

// BlockLocation describes one stored replica of a block: which worker
// holds it, on which media and tier, and where that worker sits in the
// network topology. The client reads replicas in the order the master
// returns them (paper §4.1).
type BlockLocation struct {
	Worker  WorkerID
	Address string // host:port of the worker's data transfer endpoint
	Storage StorageID
	Tier    StorageTier
	Rack    string
}

// LocatedBlock pairs a block with its current replica locations,
// ordered by the master's data retrieval policy, and the block's byte
// offset within the file.
type LocatedBlock struct {
	Block     Block
	Offset    int64 // offset of the block's first byte within the file
	Locations []BlockLocation
}

// StorageTierReport summarises one active storage tier for the
// getStorageTierReports client API (paper Table 1): capacity totals and
// the average measured throughputs across the tier's media.
type StorageTierReport struct {
	Tier          StorageTier
	NumMedia      int     // media instances grouped into this tier
	NumWorkers    int     // distinct workers contributing media
	Capacity      int64   // total bytes across all media
	Remaining     int64   // remaining bytes across all media
	WriteThruMBps float64 // average sustained write throughput, MB/s
	ReadThruMBps  float64 // average sustained read throughput, MB/s
}

// PercentRemaining returns the tier's remaining capacity as a
// percentage of its total capacity, or 0 for an empty tier.
func (r StorageTierReport) PercentRemaining() float64 {
	if r.Capacity <= 0 {
		return 0
	}
	return 100 * float64(r.Remaining) / float64(r.Capacity)
}
