// The versioned, checksummed container format of every snapshot file
// (docs/SNAPSHOT.md has the byte-level layout table).
//
// A snapshot file is:
//
//   magic "MOCHSNAP" (8 bytes)
//   format version   (u32 LE)
//   section*         (id u32 LE | payload length u64 LE | payload |
//                     CRC32C u32 LE over id+length+payload)
//
// All integers are fixed-width little-endian and all doubles inside
// payloads are bit-exact IEEE-754 byte copies (util/binary_io.h), so the
// same state serializes to the same bytes on every platform and
// serialize -> deserialize -> serialize is a byte fixed point (the
// snapshot_fuzz oracle). Readers reject — with a Status, never UB — the
// corruption matrix: empty input, wrong magic, a format version newer
// than this build, truncated framing, and any section whose CRC32C does
// not match (each error message names what failed, so a truncated file, a
// flipped bit, and a future version are distinguishable to operators and
// tests alike).
//
// Writing to disk goes through AtomicWriteFile: the bytes land in
// "<path>.tmp", are fsync'd, and are renamed onto the final path — a
// crash (kill -9 included) leaves either the complete previous file or
// the complete new one, never a torn mixture. Readers ignore "*.tmp"
// leftovers by construction (they only open the committed names).
//
// Ownership & thread-safety: a SnapshotWriter borrows the caller's output
// string and is single-consumer mutable state, as is a SnapshotReader
// over its borrowed input buffer — one (de)serialization pass owns one of
// each; no shared state. The file helpers are pure calls into the OS.

#ifndef MOCHE_PERSIST_SNAPSHOT_H_
#define MOCHE_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/binary_io.h"
#include "util/status.h"

namespace moche {
namespace persist {

/// First 8 bytes of every snapshot file.
inline constexpr char kSnapshotMagic[] = "MOCHSNAP";  // 8 chars + NUL
inline constexpr size_t kSnapshotMagicSize = 8;

/// The format version this build writes and the newest it can read.
/// Bump on any layout change; readers refuse newer versions with
/// Unimplemented (forward compatibility is out of scope — an operator
/// restores with the build that wrote the snapshot, or newer).
///
/// History:
///   1  initial layout (manifest, shard header, references, streams,
///      events).
///   2  sketched reference mode: the manifest gains reference_mode /
///      sketch_k / cache_capacity, stream records gain the triage
///      counters plus a mode-dependent window payload, and sketched
///      reference-table entries append the KLL summary (docs/SKETCH.md).
///      Version-1 snapshots still restore (as kExact monitors).
inline constexpr uint32_t kSnapshotFormatVersion = 2;

/// Appends the magic + format version, then frames caller-built section
/// payloads. Typical use:
///
///   SnapshotWriter writer(&bytes);
///   std::string* payload = writer.BeginSection(kSectionStreams);
///   bin::AppendU64Le(..., payload);
///   writer.EndSection();
class SnapshotWriter {
 public:
  /// Appends the file header to `*out` immediately.
  explicit SnapshotWriter(std::string* out);

  /// Starts a section; append the payload bytes to the returned string,
  /// then call EndSection. Only one section may be open at a time.
  std::string* BeginSection(uint32_t id);

  /// Frames the open section (id, length, payload, CRC32C) onto the
  /// output.
  void EndSection();

 private:
  std::string* out_;
  std::string payload_;
  uint32_t section_id_ = 0;
  bool section_open_ = false;
};

/// One decoded section: the id plus a view into the snapshot buffer (valid
/// while the buffer outlives it).
struct SnapshotSection {
  uint32_t id = 0;
  std::string_view payload;
};

/// Validates the header on Open, then yields CRC-verified sections in file
/// order.
class SnapshotReader {
 public:
  /// Checks magic and version. `what` names the input in error messages
  /// (e.g. "shard-03.snap").
  static Result<SnapshotReader> Open(std::string_view bytes,
                                     std::string what);

  /// Reads the next section into `*section`. Sets `*done` = true (and
  /// leaves `*section` untouched) at a clean end of input. Truncated
  /// framing and CRC mismatches return non-OK.
  Status Next(SnapshotSection* section, bool* done);

  const std::string& what() const { return what_; }

  /// The format version declared by the file header (validated <=
  /// kSnapshotFormatVersion by Open). Parsers gate version-dependent
  /// payload layouts on this.
  uint32_t version() const { return version_; }

 private:
  SnapshotReader(std::string_view bytes, std::string what)
      : bytes_(bytes), reader_(bytes), what_(std::move(what)) {}

  std::string_view bytes_;  // the whole input; CRCs are taken in place
  bin::Reader reader_;
  std::string what_;
  uint32_t version_ = 0;
};

/// Writes `bytes` to "<path>.tmp", fsyncs, and renames onto `path` (the
/// atomic-commit protocol above). Any OS failure is reported with the
/// failing step in the message; the target file is never left torn.
Status AtomicWriteFile(const std::string& path, std::string_view bytes);

/// Reads a whole file. NotFound when the file does not exist; the zero-
/// length case is reported by SnapshotReader::Open (an empty snapshot is a
/// corruption, but an empty *file* read is not an I/O error).
Result<std::string> ReadFileToString(const std::string& path);

}  // namespace persist
}  // namespace moche

#endif  // MOCHE_PERSIST_SNAPSHOT_H_
