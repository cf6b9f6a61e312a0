//===- Version.h - Analyzer version identity ------------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tool version string folded into every cache key and checkpoint
/// digest (src/cache). Bump it whenever an analysis change can alter any
/// cached outcome -- diagnostics text, error counts, inference results --
/// so stale entries from an older analyzer are unreachable rather than
/// wrong. The cache needs no migration logic: orphaned entries are just
/// never looked up again.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_SUPPORT_VERSION_H
#define LNA_SUPPORT_VERSION_H

namespace lna {

/// Analysis-identity version: participates in content keys.
inline constexpr const char *AnalyzerVersion = "lna-0.8";

} // namespace lna

#endif // LNA_SUPPORT_VERSION_H
