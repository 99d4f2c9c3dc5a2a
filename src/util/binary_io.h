// Canonical little-endian binary encoding primitives for the snapshot
// subsystem (src/persist) and the per-layer serialization hooks that feed
// it (PreparedReference, StreamingKs, PreparedReferenceCache).
//
// Every multi-byte integer is written least-significant byte first and
// every double is written as the little-endian bytes of its IEEE-754 bit
// pattern, independent of host byte order — a snapshot taken on any
// machine restores bit-identically on any other. Doubles round-trip
// exactly, including -0.0, denormals, and NaN payloads: the codec copies
// bits, it never formats or parses decimal text.
//
// The Reader is the untrusted-input half: every Read* bounds-checks
// against the remaining buffer and returns false instead of reading past
// the end, and the length-prefixed readers reject any count that could
// not possibly fit in the remaining bytes before allocating — a corrupted
// length field must fail cleanly, never OOM or overflow.
//
// Ownership & thread-safety: free functions append to a caller-owned
// string; a Reader borrows its buffer (the caller keeps it alive) and is
// mutable single-consumer cursor state — one decoding pass owns one
// Reader. No shared state anywhere.

#ifndef MOCHE_UTIL_BINARY_IO_H_
#define MOCHE_UTIL_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace moche {
namespace bin {

inline void AppendU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

/// Writes the 8 little-endian bytes of `v` to `dst` by shift-and-mask on
/// the value, so the bytes never depend on host byte order.
inline void StoreU64Le(uint64_t v, char* dst) {
  for (int i = 0; i < 8; ++i) {
    dst[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
}

/// Inverse of StoreU64Le.
inline uint64_t LoadU64Le(const char* src) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(src[i])) << (8 * i);
  }
  return v;
}

inline void AppendU32Le(uint32_t v, std::string* out) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
  out->append(bytes, 4);
}

inline void AppendU64Le(uint64_t v, std::string* out) {
  char bytes[8];
  StoreU64Le(v, bytes);
  out->append(bytes, 8);
}

/// The IEEE-754 bit pattern of `v` as an integer (value-preserving on any
/// platform where double and uint64_t share a byte order, i.e. all
/// supported ones).
inline uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double is not 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

inline double DoubleFromBits(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Bit-exact: the double's IEEE bit pattern in little-endian byte order.
inline void AppendDoubleLe(double v, std::string* out) {
  AppendU64Le(DoubleBits(v), out);
}

/// u64 length + raw bytes.
inline void AppendString(std::string_view s, std::string* out) {
  AppendU64Le(static_cast<uint64_t>(s.size()), out);
  out->append(s.data(), s.size());
}

/// u64 count + bit-exact doubles: the same bytes as AppendDoubleLe per
/// element, written after one resize of `out`.
inline void AppendDoubleArray(const std::vector<double>& values,
                              std::string* out) {
  AppendU64Le(static_cast<uint64_t>(values.size()), out);
  const size_t begin = out->size();
  out->resize(begin + 8 * values.size());
  char* dst = out->data() + begin;
  for (double v : values) {
    StoreU64Le(DoubleBits(v), dst);
    dst += 8;
  }
}

/// Bounds-checked cursor over an untrusted byte buffer. Every reader
/// returns false (leaving the output untouched and the cursor unmoved)
/// when the remaining bytes cannot satisfy the read.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  size_t pos() const { return pos_; }
  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

  bool ReadU8(uint8_t* out) {
    if (remaining() < 1) return false;
    *out = static_cast<uint8_t>(bytes_[pos_++]);
    return true;
  }

  bool ReadU32Le(uint32_t* out) {
    if (remaining() < 4) return false;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_ + static_cast<size_t>(i)]))
           << (8 * i);
    }
    pos_ += 4;
    *out = v;
    return true;
  }

  bool ReadU64Le(uint64_t* out) {
    if (remaining() < 8) return false;
    *out = LoadU64Le(bytes_.data() + pos_);
    pos_ += 8;
    return true;
  }

  bool ReadDoubleLe(double* out) {
    uint64_t bits = 0;
    if (!ReadU64Le(&bits)) return false;
    *out = DoubleFromBits(bits);
    return true;
  }

  /// Length-prefixed string. A length exceeding the remaining bytes is a
  /// corruption, rejected before any allocation.
  bool ReadString(std::string* out) {
    uint64_t len = 0;
    const size_t mark = pos_;
    if (!ReadU64Le(&len)) return false;
    if (len > remaining()) {
      pos_ = mark;
      return false;
    }
    out->assign(bytes_.data() + pos_, static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return true;
  }

  /// Count-prefixed double array, replacing `*out`; the count is capped by
  /// remaining()/8 before the output vector is sized, so a corrupted count
  /// cannot OOM.
  bool ReadDoubleArray(std::vector<double>* out) {
    uint64_t count = 0;
    const size_t mark = pos_;
    if (!ReadU64Le(&count)) return false;
    if (count > remaining() / 8) {
      pos_ = mark;
      return false;
    }
    out->resize(static_cast<size_t>(count));
    const char* src = bytes_.data() + pos_;
    for (double& v : *out) {
      v = DoubleFromBits(LoadU64Le(src));
      src += 8;
    }
    pos_ += 8 * static_cast<size_t>(count);
    return true;
  }

  /// Raw view of the next `len` bytes (for nested section payloads).
  bool ReadBytes(size_t len, std::string_view* out) {
    if (len > remaining()) return false;
    *out = bytes_.substr(pos_, len);
    pos_ += len;
    return true;
  }

  bool Skip(size_t len) {
    if (len > remaining()) return false;
    pos_ += len;
    return true;
  }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace bin
}  // namespace moche

#endif  // MOCHE_UTIL_BINARY_IO_H_
