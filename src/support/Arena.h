//===- Arena.h - Bump-pointer allocator -----------------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simple bump-pointer arena. AST nodes and types live for the lifetime
/// of their owning context, so per-node deallocation is unnecessary; the
/// arena trades it away for allocation speed and locality.
///
/// The arena is the analysis's dominant allocator, so it is also where
/// the memory budget bites: an optional byte cap (setByteLimit) turns
/// exhaustion into AnalysisAbort{MemoryCap} instead of an OOM kill, a
/// single-allocation cap rejects absurd requests before size arithmetic
/// can wrap, and every allocation is a fault-injection point
/// ("alloc:arena") so the robustness harness can exercise bad_alloc
/// paths deterministically.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_SUPPORT_ARENA_H
#define LNA_SUPPORT_ARENA_H

#include "support/Budget.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace lna {

/// A bump-pointer allocator. Objects allocated here must be trivially
/// destructible or have destructors that need not run (AST nodes satisfy
/// this: they own no resources beyond arena memory).
class Arena {
public:
  /// Largest single allocation the arena serves. Nothing the analysis
  /// builds legitimately approaches this; a larger request is corrupt
  /// size arithmetic or an adversarial input, and capping it here keeps
  /// the alignment math below overflow-free.
  static constexpr size_t MaxSingleAllocation = size_t(1) << 30; // 1 GiB

  Arena() = default;
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Caps total bytes handed out; exceeding the cap raises
  /// AnalysisAbort{MemoryCap}. 0 = unlimited.
  void setByteLimit(size_t Bytes) { ByteLimit = Bytes; }

  /// Allocates \p Size bytes aligned to \p Align.
  void *allocate(size_t Size, size_t Align) {
    assert(Align != 0 && (Align & (Align - 1)) == 0 && "bad alignment");
    faultPoint("alloc:arena");
    if (Size > MaxSingleAllocation || Align > MaxSingleAllocation)
      throw AnalysisAbort(FailureKind::MemoryCap,
                          "arena allocation of " + std::to_string(Size) +
                              " bytes exceeds the single-allocation cap");
    // TotalAllocated and Size are both below 2^60ish here, so the sum
    // cannot wrap.
    if (ByteLimit != 0 && TotalAllocated + Size > ByteLimit)
      throw AnalysisAbort(FailureKind::MemoryCap,
                          "arena byte cap of " + std::to_string(ByteLimit) +
                              " bytes exceeded");
    // Size and Align are <= 2^30 and Offset <= SlabSize <= 2^31, so the
    // padding and end-of-allocation arithmetic cannot wrap either.
    size_t Aligned = Slabs.empty() ? 0 : alignedOffset(Offset, Align);
    if (Slabs.empty() || Aligned + Size > SlabSize) {
      // Slab bases are only guaranteed new[]'s 16-byte alignment, so a
      // fresh slab reserves room to align the address itself.
      size_t Need = Size + Align - 1;
      size_t NewSlab = Need > DefaultSlabSize ? Need : DefaultSlabSize;
      Slabs.push_back(std::make_unique<char[]>(NewSlab));
      SlabSize = NewSlab;
      Aligned = alignedOffset(0, Align);
    }
    Offset = Aligned + Size;
    TotalAllocated += Size;
    return Slabs.back().get() + Aligned;
  }

  /// Constructs a \p T in the arena.
  template <typename T, typename... Args> T *create(Args &&...As) {
    void *Mem = allocate(sizeof(T), alignof(T));
    return new (Mem) T(std::forward<Args>(As)...);
  }

  /// Total bytes handed out (diagnostic only).
  size_t bytesAllocated() const { return TotalAllocated; }

private:
  static constexpr size_t DefaultSlabSize = 64 * 1024;

  /// The smallest offset >= \p Off into the current slab whose
  /// *address* is a multiple of \p Align.
  size_t alignedOffset(size_t Off, size_t Align) const {
    uintptr_t Addr = reinterpret_cast<uintptr_t>(Slabs.back().get()) + Off;
    return Off + ((Align - Addr % Align) % Align);
  }

  std::vector<std::unique_ptr<char[]>> Slabs;
  size_t SlabSize = 0;
  size_t Offset = 0;
  size_t TotalAllocated = 0;
  size_t ByteLimit = 0;
};

} // namespace lna

#endif // LNA_SUPPORT_ARENA_H
