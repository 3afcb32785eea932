// R2v2: per-function intraprocedural taint pass over the token stream.
//
// The name scan in rules.cc only sees values that *keep* a per-sample name.
// The ghost-clipping path is exactly the shape it misses: a squared-norm
// accumulator or weighted backprop row copied into an innocently named
// `double total`, then returned or stored. This pass follows the value.
//
// Taint model (per function body, no interprocedural propagation):
//   sources     — identifiers matching the per-sample patterns (rules.h),
//                 parameters declared on a `// geodp: per-sample` line, and
//                 calls into known per-sample APIs (BackwardSum).
//   propagation — assignment and compound assignment (`x = t`, `x += t[i]`,
//                 arithmetic on the right-hand side, container subscripts),
//                 range-for over a tainted range, construction from tainted
//                 arguments, and method calls that feed a tainted argument
//                 into a local object.
//   sinks       — `return` of a tainted value, writes into member state
//                 (`this->...` or the trailing-underscore convention), and
//                 calls that pass a tainted argument out of the function
//                 (value-reading helpers like std::min are exempt).
//   sanitizers  — a `// geodp: sensitivity-checked` line cleans every
//                 variable it mentions (the sensitivity bound has been
//                 applied; the value is no longer raw per-sample data).
//                 `// geodp: per-sample` marks authorized transport: the
//                 sink is suppressed but the value STAYS tainted, so a
//                 later unannotated escape is still caught.
//
// Findings reuse RuleId::kR2PrivacyBoundary ("R2") with an "escapes via
// local" message carrying the taint chain back to the source.

#ifndef GEODP_TOOLS_GEODP_LINT_DATAFLOW_H_
#define GEODP_TOOLS_GEODP_LINT_DATAFLOW_H_

#include <string>
#include <vector>

#include "geodp_lint/lint.h"
#include "geodp_lint/rules.h"

namespace geodp {
namespace lint {

/// Runs the taint pass over every function body in `source` and appends
/// R2v2 findings. Applies only where PathInfo::r2_applies (src/ outside
/// src/clip/).
void CheckPerSampleTaint(const std::string& path, const PathInfo& info,
                         const AnnotatedSource& source,
                         std::vector<Finding>& findings);

}  // namespace lint
}  // namespace geodp

#endif  // GEODP_TOOLS_GEODP_LINT_DATAFLOW_H_
