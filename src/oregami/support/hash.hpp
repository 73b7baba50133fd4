// Stable 64-bit FNV-1a hashing combinators for content-addressed
// digests (the mapping server's result cache keys every job by a
// canonical digest of its inputs).
//
// Stability contract: the digest of a byte sequence is a pure function
// of the bytes -- no pointers, no iteration-order dependence, no
// platform word size leaks. Every multi-byte integer is folded in
// little-endian fixed width, and every variable-length field is
// length-prefixed, so "ab" + "c" never collides with "a" + "bc" and a
// digest pinned in a test stays pinned across runs, --jobs values, and
// machines. Changing any of the fold rules below is a cache-format
// break and must bump kDigestVersion.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

namespace oregami {

/// Bump when the canonical fold rules change: the version is folded
/// into every digest, so stale cache keys can never alias new ones.
inline constexpr std::uint64_t kDigestVersion = 1;

/// The typed combinators shared by every sink of the canonical fold:
/// `Sink` supplies `bytes(data, size)`, and each combinator reduces to
/// it, so the hasher and the byte recorder below see the same bytes.
template <class Sink>
class CanonicalFold {
 public:
  /// Folds a u64 as 8 little-endian bytes (fixed width on every
  /// platform).
  void u64(std::uint64_t v) {
    unsigned char buf[8];
    for (int i = 0; i < 8; ++i) {
      buf[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    sink().bytes(buf, sizeof(buf));
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void i32(int v) { u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void boolean(bool v) { u64(v ? 1 : 0); }

  /// Length-prefixed string fold.
  void str(std::string_view s) {
    u64(s.size());
    sink().bytes(s.data(), s.size());
  }

 private:
  Sink& sink() { return static_cast<Sink&>(*this); }
};

/// Incremental FNV-1a (64-bit) with length-prefixed combinators.
class Fnv1a : public CanonicalFold<Fnv1a> {
 public:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x00000100000001b3ULL;

  /// Folds raw bytes (no length prefix; use the typed combinators for
  /// anything variable-length).
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      state_ ^= p[i];
      state_ *= kPrime;
    }
  }

  [[nodiscard]] std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = kOffset;
};

/// Keeps the folded bytes verbatim instead of hashing them: a key that
/// is compared in full, where a 64-bit digest could collide.
class CanonicalBytes : public CanonicalFold<CanonicalBytes> {
 public:
  void bytes(const void* data, std::size_t size) {
    out_.append(static_cast<const char*>(data), size);
  }

  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// 16 lowercase hex characters, zero-padded (the wire format of a
/// digest).
[[nodiscard]] inline std::string digest_hex(std::uint64_t digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[digest & 0xF];
    digest >>= 4;
  }
  return out;
}

}  // namespace oregami
