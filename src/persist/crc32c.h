// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78): the
// per-section integrity checksum of the snapshot format (docs/SNAPSHOT.md).
// Castagnoli rather than the zlib polynomial because it is the storage-
// format convention (iSCSI, ext4, LevelDB/RocksDB record framing) and
// hardware-accelerated on common CPUs. This implementation is portable
// C++: slice-by-8, eight 256-entry tables that advance the CRC over one
// 8-byte block per step, with each block read as little-endian words
// assembled from bytes (no intrinsics, no alignment or byte-order
// assumption). Speed matters here: the checksummed sections carry every
// serialized double, so a checkpoint runs this over nearly all of its
// bytes, once when writing and once more when restoring.
//
// Ownership & thread-safety: pure functions over caller-owned buffers; the
// internal lookup tables are immutable after their first-use
// initialization. Safe from any thread.

#ifndef MOCHE_PERSIST_CRC32C_H_
#define MOCHE_PERSIST_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace moche {
namespace persist {

/// CRC32C of `size` bytes starting at `data`, seeded with `crc` (pass 0
/// for a fresh checksum; feed a previous result to extend incrementally —
/// Crc32c(Crc32c(0, a), b) == Crc32c(0, ab)).
uint32_t ExtendCrc32c(uint32_t crc, const void* data, size_t size);

inline uint32_t Crc32c(std::string_view bytes) {
  return ExtendCrc32c(0, bytes.data(), bytes.size());
}

}  // namespace persist
}  // namespace moche

#endif  // MOCHE_PERSIST_CRC32C_H_
