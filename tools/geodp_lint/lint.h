// geodp_lint: repo-specific static analysis for the GeoDP codebase.
//
// The DP guarantee rests on invariants the compiler cannot see; this tool
// makes them machine-checked instead of tribal knowledge:
//
//   R1  nondeterminism ban      — all randomness and wall-clock reads must go
//                                 through src/base/rng.* / src/base/timer.*
//                                 (the bit-identical 1-vs-N-thread contract).
//                                 Cpu feature probes (cpuid intrinsics) count:
//                                 they are machine-dependent inputs, and are
//                                 only allowed in the SIMD dispatch layer
//                                 src/base/simd/ under an explicit
//                                 `// geodp: cpuid-ok` annotation.
//   R2  privacy boundary        — identifiers carrying per-sample gradient
//                                 data may only be consumed inside src/clip/;
//                                 elsewhere each use must be annotated
//                                 `// geodp: per-sample` (transport) or
//                                 `// geodp: sensitivity-checked` (post-clip).
//   R3  no CHECK/abort in       — src/ckpt/, src/dp/ and src/optim/trainer*
//       Status-returning paths    report Status; aborts there need an
//                                 explicit `// geodp: check-ok` annotation.
//   R4  header hygiene          — include guard / #pragma once in headers,
//                                 no `using namespace` in headers, and no
//                                 <iostream> in library code (logging, CLIs,
//                                 benches, examples and tests are exempt).
//   R5  raw I/O ban             — library code must not open files directly
//                                 (fopen, std::ofstream/ifstream/fstream,
//                                 ::open): all filesystem writes go through
//                                 src/base/io/ so they get errno
//                                 classification, deterministic retry, and
//                                 fault-injection coverage. Only src/base/io/
//                                 itself may touch the raw syscalls; anywhere
//                                 else needs `// geodp: raw-io-ok` with a
//                                 rationale.
//   R6  reinterpret_cast ban    — type punning is confined to the audited
//                                 helper src/base/byte_view.h (PunCast,
//                                 static_assert-guarded to object pointers
//                                 that keep their constness); a raw
//                                 reinterpret_cast anywhere else is a
//                                 finding.
//   ANN annotation grammar      — a `// geodp: ...` comment that does not
//                                 parse is itself a finding, so a typo never
//                                 silently disables a rule.
//
// R2 has two layers: a name scan (any per-sample-named identifier outside
// src/clip/ needs an annotation) and R2v2, a per-function intraprocedural
// taint pass (dataflow.h) that follows per-sample values through innocently
// named locals to returns, member writes and outgoing calls. Both report
// as [R2].
//
// Any rule can be suppressed on a single line with `// geodp: nolint(Rn)`.
// The analysis runs on a real token stream (tokenizer.h), deliberately
// dependency-free: no libclang, no compilation database needed.

#ifndef GEODP_TOOLS_GEODP_LINT_LINT_H_
#define GEODP_TOOLS_GEODP_LINT_LINT_H_

#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace geodp {
namespace lint {

enum class RuleId {
  kR1Nondeterminism,
  kR2PrivacyBoundary,
  kR3CheckAbort,
  kR4HeaderHygiene,
  kR5RawIo,
  kR6ReinterpretCast,
  kAnnotation,
};

/// Stable short identifier used in output and nolint(): "R1".."R6", "ANN".
const char* RuleIdName(RuleId rule);

struct Finding {
  RuleId rule;
  std::string path;  // repo-relative, forward slashes
  int line = 0;      // 1-based
  std::string message;
};

/// "path:line: [R1] message" — the format asserted by tests and parsed by CI.
std::string FormatFinding(const Finding& finding);

/// Lints `content` as if it lived at repo-relative `path`. Rule
/// applicability (allowlists, library paths) is decided from `path` alone,
/// which is what lets tests feed fixture files under virtual paths.
std::vector<Finding> LintContent(const std::string& path,
                                 std::string_view content);

/// Reads `disk_path` and lints it as repo-relative `path`.
StatusOr<std::vector<Finding>> LintFile(const std::string& disk_path,
                                        const std::string& path);

/// Scans src/, tools/, examples/, bench/ and tests/ under `root` (skipping
/// build*/ and lint_fixtures/) and returns all findings, sorted by path and
/// line.
StatusOr<std::vector<Finding>> LintTree(const std::string& root);

}  // namespace lint
}  // namespace geodp

#endif  // GEODP_TOOLS_GEODP_LINT_LINT_H_
