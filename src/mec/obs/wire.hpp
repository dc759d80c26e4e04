// Little-endian byte codec shared by the .meclog run-log frames
// (obs/run_log.cpp) and the transport barrier-payload frames
// (parallel/transport.cpp).  The wire format is a contract: every multi-byte
// field is little-endian on disk and on the pipe, independent of the host,
// and doubles travel as their IEEE-754 bit pattern (bit_cast, never a
// narrowing conversion), so encode/decode round-trips are bit-exact across
// processes and across machines.
//
// Each scalar moves with one std::memcpy, a word at a time; a big-endian
// host byte-swaps the value first (if constexpr, so a little-endian build
// carries no swap), which keeps the bytes identical on every host.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "mec/common/error.hpp"

namespace mec::obs::wire {

/// Reverses the bytes of an unsigned integer (std::byteswap is C++23).
template <std::unsigned_integral T>
constexpr T byteswap(T v) noexcept {
  T out = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out = static_cast<T>((out << 8) | (v & 0xFFu));
    v = static_cast<T>(v >> 8);
  }
  return out;
}

/// Host order <-> little-endian; the identity on a little-endian host.
template <std::unsigned_integral T>
constexpr T to_le(T v) noexcept {
  if constexpr (std::endian::native == std::endian::big) return byteswap(v);
  return v;
}

/// Reads a little-endian T from `p`, which need not be aligned.
template <std::unsigned_integral T>
T load_le(const std::uint8_t* p) noexcept {
  T v{};
  std::memcpy(&v, p, sizeof v);
  return to_le(v);
}

/// Appends little-endian scalars to a growing byte buffer.  The buffer is
/// sized to the reserve up front and `size_` marks the bytes written, so a
/// put within the reserve is a bounds check and one memcpy.
class ByteWriter {
 public:
  explicit ByteWriter(std::size_t reserve = 0) : bytes_(reserve) {}

  void put_u8(std::uint8_t v) { put(v); }
  void put_u16(std::uint16_t v) { put(v); }
  void put_u32(std::uint32_t v) { put(v); }
  void put_u64(std::uint64_t v) { put(v); }
  void put_f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  void put_bytes(const void* data, std::size_t n) {
    if (n > 0) std::memcpy(extend(n), data, n);
  }

  std::size_t size() const noexcept { return size_; }
  std::vector<std::uint8_t> take() {
    bytes_.resize(size_);
    size_ = 0;
    return std::move(bytes_);
  }

 private:
  template <std::unsigned_integral T>
  void put(T v) {
    v = to_le(v);
    std::memcpy(extend(sizeof v), &v, sizeof v);
  }

  /// Claims the next `n` bytes; past the reserve the buffer grows as
  /// push_back would, touching only the bytes written.
  std::uint8_t* extend(std::size_t n) {
    if (bytes_.size() - size_ < n) bytes_.resize(size_ + n);
    std::uint8_t* at = bytes_.data() + size_;
    size_ += n;
    return at;
  }

  std::vector<std::uint8_t> bytes_;
  std::size_t size_ = 0;
};

/// Reads little-endian scalars from a byte span; throws mec::RuntimeError on
/// underflow, so a truncated or corrupt payload can never be misparsed into
/// out-of-range reads.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t get_u8() {
    need(1);
    return bytes_[pos_++];
  }
  std::uint16_t get_u16() { return get<std::uint16_t>(); }
  std::uint32_t get_u32() { return get<std::uint32_t>(); }
  std::uint64_t get_u64() { return get<std::uint64_t>(); }
  double get_f64() { return std::bit_cast<double>(get_u64()); }
  std::string get_string(std::size_t n) {
    need(n);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  bool exhausted() const noexcept { return pos_ == bytes_.size(); }

  /// Refuses a declared count of `item_size`-byte items that the unread
  /// bytes cannot hold, so a decoder never sizes a vector from a count the
  /// payload does not back.  `field` names the count in the message.
  void need_items(std::uint64_t count, std::size_t item_size,
                  const char* field) const {
    if (count > remaining() / item_size)
      throw RuntimeError(std::string("payload declares ") +
                         std::to_string(count) + " " + field + " of " +
                         std::to_string(item_size) + " bytes each, but " +
                         std::to_string(remaining()) + " bytes remain");
  }

 private:
  template <std::unsigned_integral T>
  T get() {
    need(sizeof(T));
    const T v = load_le<T>(bytes_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }

  void need(std::size_t n) const {
    if (n > remaining())
      throw RuntimeError("payload underflow while decoding");
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace mec::obs::wire
