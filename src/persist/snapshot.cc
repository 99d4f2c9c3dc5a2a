#include "persist/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "persist/crc32c.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace moche {
namespace persist {

SnapshotWriter::SnapshotWriter(std::string* out) : out_(out) {
  out_->append(kSnapshotMagic, kSnapshotMagicSize);
  bin::AppendU32Le(kSnapshotFormatVersion, out_);
}

std::string* SnapshotWriter::BeginSection(uint32_t id) {
  MOCHE_CHECK(!section_open_);
  section_open_ = true;
  section_id_ = id;
  payload_.clear();
  return &payload_;
}

void SnapshotWriter::EndSection() {
  MOCHE_CHECK(section_open_);
  section_open_ = false;
  // The CRC covers the framed bytes (id + length + payload), so a flipped
  // bit anywhere in the record — framing included — is detected by the
  // section it lands in. The record is framed in place on the output and
  // checksummed there: the payload is copied once.
  const size_t record_begin = out_->size();
  bin::AppendU32Le(section_id_, out_);
  bin::AppendU64Le(static_cast<uint64_t>(payload_.size()), out_);
  out_->append(payload_);
  const uint32_t crc = ExtendCrc32c(0, out_->data() + record_begin,
                                    out_->size() - record_begin);
  bin::AppendU32Le(crc, out_);
}

Result<SnapshotReader> SnapshotReader::Open(std::string_view bytes,
                                            std::string what) {
  if (bytes.empty()) {
    return Status::InvalidArgument(
        StrFormat("%s: snapshot is empty (0 bytes)", what.c_str()));
  }
  if (bytes.size() < kSnapshotMagicSize + 4) {
    return Status::OutOfRange(StrFormat(
        "%s: snapshot truncated inside the header (%zu bytes)", what.c_str(),
        bytes.size()));
  }
  if (std::memcmp(bytes.data(), kSnapshotMagic, kSnapshotMagicSize) != 0) {
    return Status::InvalidArgument(
        StrFormat("%s: bad snapshot magic", what.c_str()));
  }
  SnapshotReader reader(bytes, std::move(what));
  reader.reader_.Skip(kSnapshotMagicSize);
  uint32_t version = 0;
  reader.reader_.ReadU32Le(&version);  // size checked above
  if (version > kSnapshotFormatVersion) {
    return Status::Unimplemented(StrFormat(
        "%s: snapshot format version %u is newer than this build reads "
        "(%u)",
        reader.what_.c_str(), version, kSnapshotFormatVersion));
  }
  reader.version_ = version;
  return reader;
}

Status SnapshotReader::Next(SnapshotSection* section, bool* done) {
  if (reader_.AtEnd()) {
    *done = true;
    return Status::OK();
  }
  *done = false;
  const size_t record_begin = reader_.pos();
  uint32_t id = 0;
  uint64_t length = 0;
  if (!reader_.ReadU32Le(&id) || !reader_.ReadU64Le(&length)) {
    return Status::OutOfRange(StrFormat(
        "%s: snapshot truncated inside a section frame at byte %zu",
        what_.c_str(), record_begin));
  }
  std::string_view payload;
  if (!reader_.ReadBytes(static_cast<size_t>(length), &payload)) {
    return Status::OutOfRange(StrFormat(
        "%s: snapshot truncated inside section %u (%llu payload bytes "
        "declared, %zu available)",
        what_.c_str(), id, static_cast<unsigned long long>(length),
        reader_.remaining()));
  }
  uint32_t stored_crc = 0;
  if (!reader_.ReadU32Le(&stored_crc)) {
    return Status::OutOfRange(StrFormat(
        "%s: snapshot truncated before the CRC of section %u",
        what_.c_str(), id));
  }
  // Recompute over the framed bytes exactly as the writer hashed them;
  // they sit contiguously in the input, so no copy is needed.
  const uint32_t computed =
      Crc32c(bytes_.substr(record_begin, 12 + payload.size()));
  if (computed != stored_crc) {
    return Status::InvalidArgument(StrFormat(
        "%s: section %u CRC32C mismatch (stored %08x, computed %08x)",
        what_.c_str(), id, stored_crc, computed));
  }
  section->id = id;
  section->payload = payload;
  return Status::OK();
}

Status AtomicWriteFile(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal(StrFormat("open(%s) failed: %s", tmp.c_str(),
                                      std::strerror(errno)));
  }
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::Internal(StrFormat("write(%s) failed: %s", tmp.c_str(),
                                        std::strerror(err)));
    }
    written += static_cast<size_t>(n);
  }
  // fsync before rename: the commit point is the rename, and the data must
  // be durable before the name points at it (a crash between rename and a
  // later flush could otherwise commit a hole).
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::Internal(StrFormat("fsync(%s) failed: %s", tmp.c_str(),
                                      std::strerror(err)));
  }
  if (::close(fd) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return Status::Internal(StrFormat("close(%s) failed: %s", tmp.c_str(),
                                      std::strerror(err)));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return Status::Internal(StrFormat("rename(%s -> %s) failed: %s",
                                      tmp.c_str(), path.c_str(),
                                      std::strerror(err)));
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound(
        StrFormat("cannot open %s for reading", path.c_str()));
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::Internal(StrFormat("read of %s failed", path.c_str()));
  }
  return bytes;
}

}  // namespace persist
}  // namespace moche
