// FNV-1a over 64-bit words, each double by its bits: a digest of a result
// that moves when any hashed bit moves.  Tests pin solver outputs with it
// where a hexfloat per field would be hundreds of lines.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

namespace mec::test {

class BitDigest {
 public:
  void word(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (8 * byte)) & 0xFFu;
      h_ *= 1099511628211ull;
    }
  }
  void real(double d) { word(std::bit_cast<std::uint64_t>(d)); }
  void words(std::span<const std::int64_t> values) {
    for (const std::int64_t v : values) word(static_cast<std::uint64_t>(v));
  }
  void reals(std::span<const double> values) {
    for (const double v : values) real(v);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

}  // namespace mec::test
