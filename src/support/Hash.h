//===- Hash.h - Incremental FNV-1a content hashing ------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The content-hashing primitive behind the result cache and the
/// checkpoint journal's freshness digests (src/cache/CacheStore.h):
/// incremental 64-bit FNV-1a, doubled into a 128-bit digest by running
/// two independently seeded streams over the same bytes. FNV is not
/// cryptographic -- the cache defends against *staleness and
/// corruption*, not adversaries -- but 128 bits make accidental
/// collisions across a corpus of hundreds of thousands of entries
/// vanishingly unlikely, and the function is trivially portable and
/// allocation-free.
///
/// Digests are rendered as fixed-width lowercase hex so they can be
/// filesystem names and checkpoint journal fields.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_SUPPORT_HASH_H
#define LNA_SUPPORT_HASH_H

#include <cstdint>
#include <string>
#include <string_view>

namespace lna {

/// One incremental 64-bit FNV-1a stream.
class Fnv1a {
public:
  static constexpr uint64_t DefaultOffset = 1469598103934665603ULL;
  static constexpr uint64_t Prime = 1099511628211ULL;

  explicit Fnv1a(uint64_t Offset = DefaultOffset) : H(Offset) {}

  Fnv1a &update(std::string_view Bytes) {
    for (char C : Bytes) {
      H ^= static_cast<unsigned char>(C);
      H *= Prime;
    }
    return *this;
  }

  /// Hashes the 8 little-endian bytes of \p V (length prefixes, counts).
  Fnv1a &update(uint64_t V) {
    for (unsigned I = 0; I < 8; ++I) {
      H ^= static_cast<unsigned char>(V >> (I * 8));
      H *= Prime;
    }
    return *this;
  }

  uint64_t value() const { return H; }

private:
  uint64_t H;
};

/// 16 lowercase hex digits of \p V, zero-padded.
inline std::string toHex16(uint64_t V) {
  static const char *Digits = "0123456789abcdef";
  std::string Out(16, '0');
  for (int I = 15; I >= 0; --I) {
    Out[static_cast<size_t>(I)] = Digits[V & 0xF];
    V >>= 4;
  }
  return Out;
}

/// A 128-bit content digest: two FNV-1a streams with distinct offset
/// bases fed identical input. Feed it fields with update(); every
/// variable-length field should be framed by its length (the callers in
/// src/cache do this) so concatenation ambiguities cannot alias keys.
class ContentDigest {
public:
  ContentDigest() : A(Fnv1a::DefaultOffset), B(0x6c6e612d63616368ULL) {}

  ContentDigest &update(std::string_view Bytes) {
    A.update(static_cast<uint64_t>(Bytes.size()));
    B.update(static_cast<uint64_t>(Bytes.size()));
    A.update(Bytes);
    B.update(Bytes);
    return *this;
  }

  ContentDigest &update(uint64_t V) {
    A.update(V);
    B.update(V);
    return *this;
  }

  /// 32 hex chars; filesystem- and journal-safe.
  std::string hex() const { return toHex16(A.value()) + toHex16(B.value()); }

private:
  Fnv1a A;
  Fnv1a B;
};

/// One-shot convenience: the 64-bit FNV-1a of \p Bytes.
inline uint64_t fnv1a(std::string_view Bytes) {
  return Fnv1a().update(Bytes).value();
}

} // namespace lna

#endif // LNA_SUPPORT_HASH_H
