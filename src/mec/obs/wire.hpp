// Little-endian byte codec shared by the .meclog run-log frames
// (obs/run_log.cpp), the transport frames (parallel/transport.cpp) and the
// rank handshake and population (net/protocol.cpp).  The wire format is a
// contract: every multi-byte field is little-endian on disk and on the pipe,
// independent of the host, and doubles travel as their IEEE-754 bit pattern
// (bit_cast, never a narrowing conversion), so encode/decode round-trips are
// bit-exact across processes and across machines.
//
// Each scalar moves with one std::memcpy, a word at a time; a big-endian
// host byte-swaps the value first (if constexpr, so a little-endian build
// carries no swap), which keeps the bytes identical on every host.
//
// Field lists.  Every payload, and every record nested in one, is laid out
// once, by a field list that names its fields in wire order:
//
//   constexpr auto fields = []<class Io, class R>(Io& io, R& r) { ... };
//
// ByteWriter and ByteReader are the two Ios: an encoder runs the list on a
// writer (R is const) and its decoder runs the same list on a reader.  Both
// offer:
//   io(a, b, ...)   one field each: an unsigned integer at its own width, a
//                   double, a bool (one byte, read as != 0) or a string (a
//                   u32 length, then the bytes).  A field's wire width is
//                   its member's type, so keep wire fields fixed-width;
//   io(e, last, "name")
//                   an enum as its underlying type; the reader refuses a
//                   value past `last` ("unknown name 9");
//   io.items(range, item_wire_size, "what", item)
//                   a u32 count, then item(io, x) per element (one field
//                   each by default); the reader refuses a count that the
//                   unread bytes cannot back (need_items) before it
//                   resizes the range;
//   Io::kReading    for the few places where the two directions differ.
// encode_whole and decode_whole run a list over a whole payload; the reader
// refuses trailing bytes.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
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

/// A value that travels as one fixed-width field: an unsigned integer at
/// its own width (a bool as one byte) or a double as its bit pattern.
template <class T>
concept Scalar = std::unsigned_integral<T> || std::same_as<T, double>;

/// A value that travels as one field: a Scalar, or a string as its u32
/// length and then its bytes.
template <class T>
concept Field = Scalar<T> || std::convertible_to<T, std::string_view>;

template <class E>
concept Enum = std::is_enum_v<E>;

/// The item of a range of single fields.
inline constexpr auto one_field = [](auto& io, auto& x) { io(x); };

/// Appends little-endian scalars to a growing byte buffer.  The buffer is
/// sized to the reserve up front and `size_` marks the bytes written, so a
/// put within the reserve is a bounds check and one memcpy.
class ByteWriter {
 public:
  static constexpr bool kReading = false;

  explicit ByteWriter(std::size_t reserve = 0) : bytes_(reserve) {}

  template <Field... T>
  void operator()(const T&... fields) {
    (field(fields), ...);
  }
  template <Enum E>
  void operator()(E e, E /*last*/, const char* /*name*/) {
    field(static_cast<std::underlying_type_t<E>>(e));
  }
  template <class Range, class Item = decltype(one_field)>
  void items(const Range& range, std::size_t /*item_wire_size*/,
             const char* /*what*/, Item item = one_field) {
    put_u32(static_cast<std::uint32_t>(std::size(range)));
    for (const auto& x : range) item(*this, x);
  }

  // Raw puts, for the frame envelope and the .meclog file header.
  void put_u8(std::uint8_t v) { put(v); }
  void put_u32(std::uint32_t v) { put(v); }
  void put_bytes(const void* data, std::size_t n) {
    if (n > 0) std::memcpy(extend(n), data, n);
  }

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
  template <Scalar T>
  void field(T v) {
    if constexpr (std::same_as<T, bool>)
      put(static_cast<std::uint8_t>(v ? 1 : 0));
    else if constexpr (std::same_as<T, double>)
      put(std::bit_cast<std::uint64_t>(v));
    else
      put(v);
  }
  void field(std::string_view s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    put_bytes(s.data(), s.size());
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
  static constexpr bool kReading = true;

  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  template <Field... T>
  void operator()(T&... fields) {
    (field(fields), ...);
  }
  template <Enum E>
  void operator()(E& e, E last, const char* name) {
    std::underlying_type_t<E> v{};
    field(v);
    if (v > static_cast<std::underlying_type_t<E>>(last))
      throw RuntimeError(std::string("payload has an unknown ") + name + " " +
                         std::to_string(v));
    e = static_cast<E>(v);
  }
  template <class Range, class Item = decltype(one_field)>
  void items(Range& range, std::size_t item_wire_size, const char* what,
             Item item = one_field) {
    const std::uint32_t n = get_u32();
    need_items(n, item_wire_size, what);
    range.resize(n);
    for (auto& x : range) item(*this, x);
  }

  // Raw reads, for the frame envelope.
  std::uint32_t get_u32() { return get<std::uint32_t>(); }
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
  /// payload does not back.  `what` names the items in the message.
  void need_items(std::uint64_t count, std::size_t item_size,
                  const char* what) const {
    if (count > remaining() / item_size)
      throw RuntimeError(std::string("payload declares ") +
                         std::to_string(count) + " " + what + " of " +
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
  template <Scalar T>
  void field(T& v) {
    if constexpr (std::same_as<T, bool>)
      v = get<std::uint8_t>() != 0;
    else if constexpr (std::same_as<T, double>)
      v = std::bit_cast<double>(get<std::uint64_t>());
    else
      v = get<T>();
  }
  void field(std::string& s) { s = get_string(get_u32()); }

  void need(std::size_t n) const {
    if (n > remaining())
      throw RuntimeError("payload underflow while decoding");
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Runs `fields` over `value` into a buffer reserved to `reserve` bytes.
template <class R, class Fields>
std::vector<std::uint8_t> encode_whole(const R& value, Fields fields,
                                       std::size_t reserve = 0) {
  ByteWriter w(reserve);
  fields(w, value);
  return w.take();
}

/// Runs `fields` over the whole of `payload` into a fresh R; bytes left
/// over throw mec::RuntimeError(`trailing`).
template <class R, class Fields>
R decode_whole(std::span<const std::uint8_t> payload, const char* trailing,
               Fields fields) {
  ByteReader r(payload);
  R value{};
  fields(r, value);
  if (!r.exhausted()) throw RuntimeError(trailing);
  return value;
}

}  // namespace mec::obs::wire
