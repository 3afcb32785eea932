#include "geodp_lint/rules.h"

#include <algorithm>
#include <array>
#include <set>
#include <sstream>

namespace geodp {
namespace lint {
namespace {

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

// Parses the text of one `// geodp: ...` comment into tags; malformed
// annotations become ANN findings so a typo never silently disables a rule.
void ParseAnnotation(std::string_view text, const std::string& path,
                     int line_number, std::vector<std::string>& tags,
                     std::vector<Finding>& findings) {
  // First whitespace-delimited token is the tag; anything after it is a
  // free-text rationale.
  size_t begin = text.find_first_not_of(" \t");
  if (begin == std::string_view::npos) begin = text.size();
  size_t end = text.find_first_of(" \t", begin);
  if (end == std::string_view::npos) end = text.size();
  const std::string token(text.substr(begin, end - begin));

  if (token == "per-sample" || token == "sensitivity-checked" ||
      token == "check-ok" || token == "cpuid-ok" || token == "raw-io-ok") {
    tags.push_back(token);
    return;
  }
  if (StartsWith(token, "nolint(") && EndsWith(token, ")")) {
    const std::string list = token.substr(7, token.size() - 8);
    std::istringstream stream(list);
    std::string rule;
    bool any = false;
    bool ok = true;
    while (std::getline(stream, rule, ',')) {
      if (rule == "R1" || rule == "R2" || rule == "R3" || rule == "R4" ||
          rule == "R5" || rule == "R6") {
        tags.push_back("nolint:" + rule);
        any = true;
      } else {
        ok = false;
      }
    }
    if (ok && any) return;
  }
  findings.push_back(
      {RuleId::kAnnotation, path, line_number,
       "unrecognized geodp annotation '" + token +
           "' (expected per-sample, sensitivity-checked, check-ok, "
           "cpuid-ok, raw-io-ok, or nolint(R1[,R2,...]))"});
}

// R1: identifiers that are nondeterministic by construction. The *_call
// set additionally requires a call so e.g. a variable named `time` in a
// declaration does not trip the rule.
constexpr std::array<std::string_view, 11> kNondetIdentifiers = {
    "random_device",  "mt19937",        "mt19937_64",
    "minstd_rand",    "minstd_rand0",   "default_random_engine",
    "knuth_b",        "ranlux24",       "ranlux24_base",
    "ranlux48",       "ranlux48_base"};
constexpr std::array<std::string_view, 5> kNondetCalls = {
    "rand", "srand", "time", "clock", "gettimeofday"};

// R1: cpu feature probes make behavior machine-dependent (a different host
// dispatches different kernels). Allowed only in the SIMD dispatch layer
// under an explicit `// geodp: cpuid-ok` annotation, so every probe stays
// auditable.
constexpr std::array<std::string_view, 8> kCpuidIdentifiers = {
    "__builtin_cpu_supports", "__builtin_cpu_init",
    "__get_cpuid",            "__get_cpuid_count",
    "__cpuid",                "__cpuid_count",
    "_xgetbv",                "_may_i_use_cpu_feature"};

constexpr std::array<std::string_view, 4> kPerSamplePatterns = {
    "per_sample", "per_example", "sample_grad", "ghost_norm"};

constexpr std::array<std::string_view, 4> kAbortCalls = {"abort", "_Exit",
                                                         "quick_exit", "exit"};

// R5: direct file-opening entry points. The stream types trip on any
// mention (a member declaration is already a bypass of the I/O substrate);
// the C functions must be calls; bare `open` must be a global-namespace
// call (`::open`) so methods like `writer.Open()` stay legal.
constexpr std::array<std::string_view, 3> kRawIoStreamTypes = {
    "ofstream", "ifstream", "fstream"};
constexpr std::array<std::string_view, 2> kRawIoCalls = {"fopen", "freopen"};

template <typename Container>
bool Contains(const Container& container, std::string_view value) {
  return std::find(container.begin(), container.end(), value) !=
         container.end();
}

}  // namespace

AnnotatedSource BuildAnnotatedSource(const std::string& path,
                                     const std::vector<Token>& tokens) {
  AnnotatedSource source;
  int last_code_line = 0;  // line of the most recent non-comment token
  for (const Token& token : tokens) {
    if (token.kind != TokenKind::kComment) {
      source.code.push_back(token);
      last_code_line = token.line;
      continue;
    }
    if (token.text.substr(0, 2) != "//") continue;  // block comments: no tags
    const std::string_view comment = std::string_view(token.text).substr(2);
    const size_t tag = comment.find("geodp:");
    // Prose mentioning qualified names ("geodp::Rng") is not an
    // annotation; require `geodp:` followed by a non-colon.
    if (tag == std::string_view::npos ||
        comment.find_first_not_of(" \t") != tag ||
        (tag + 6 < comment.size() && comment[tag + 6] == ':')) {
      continue;
    }
    // A trailing annotation guards its own line; an annotation on a
    // comment-only line guards the next line.
    const int target =
        last_code_line == token.line ? token.line : token.line + 1;
    ParseAnnotation(comment.substr(tag + 6), path, token.line,
                    source.tags[target], source.annotation_findings);
  }
  return source;
}

bool LineHasTag(const AnnotatedSource& source, int line,
                std::string_view tag) {
  const auto it = source.tags.find(line);
  if (it == source.tags.end()) return false;
  return std::find(it->second.begin(), it->second.end(), tag) !=
         it->second.end();
}

bool LineSuppressed(const AnnotatedSource& source, int line, RuleId rule) {
  return LineHasTag(source, line, std::string("nolint:") + RuleIdName(rule));
}

PathInfo ClassifyPath(const std::string& path) {
  PathInfo info;
  info.is_header = EndsWith(path, ".h");
  info.in_src = StartsWith(path, "src/");

  static constexpr std::array<std::string_view, 4> kR1Allowlist = {
      "src/base/rng.h", "src/base/rng.cc", "src/base/timer.h",
      "src/base/timer.cc"};
  const bool allowlisted = Contains(kR1Allowlist, path);
  info.r1_applies = (info.in_src || StartsWith(path, "tools/") ||
                     StartsWith(path, "examples/")) &&
                    !allowlisted;

  info.r2_applies = info.in_src && !StartsWith(path, "src/clip/");
  info.in_simd_dispatch = StartsWith(path, "src/base/simd/");
  // src/clip/ joined R3 when ClipAndSum gained defined empty-lot behavior:
  // the clipping boundary sits on the trainer's Status path, so residual
  // aborts there must be annotated internal invariants.
  info.r3_applies = StartsWith(path, "src/ckpt/") ||
                    StartsWith(path, "src/dp/") ||
                    StartsWith(path, "src/clip/") ||
                    StartsWith(path, "src/optim/trainer");
  info.iostream_banned = info.in_src && path != "src/base/check.h";
  info.r5_applies = info.in_src && !StartsWith(path, "src/base/io/");
  info.r6_applies = path != "src/base/byte_view.h";
  return info;
}

bool IsPerSampleIdentifier(std::string_view ident) {
  for (const std::string_view pattern : kPerSamplePatterns) {
    if (ident.find(pattern) != std::string_view::npos) return true;
  }
  return false;
}

void CheckTokenRules(const std::string& path, const PathInfo& info,
                     const AnnotatedSource& source,
                     std::vector<Finding>& findings) {
  const std::vector<Token>& code = source.code;

  // Lines whose first code token is '#'. R5 exempts them: `#include
  // <fstream>` mentions the type without opening anything.
  std::set<int> preprocessor_lines;
  {
    int last_line = 0;
    for (const Token& token : code) {
      if (token.line != last_line) {
        last_line = token.line;
        if (token.Is("#")) preprocessor_lines.insert(token.line);
      }
    }
  }

  // R4a: headers need an include guard or #pragma once.
  if (info.is_header) {
    bool guarded = false;
    for (size_t i = 0; i < code.size(); ++i) {
      if (!code[i].Is("#") || preprocessor_lines.count(code[i].line) == 0) {
        continue;
      }
      if (i + 2 < code.size() && code[i + 1].IsIdent("pragma") &&
          code[i + 2].IsIdent("once")) {
        guarded = true;
        break;
      }
      if (i + 1 < code.size() && code[i + 1].IsIdent("ifndef")) {
        guarded = true;
        break;
      }
    }
    if (!guarded) {
      findings.push_back({RuleId::kR4HeaderHygiene, path, 1,
                          "header has neither an include guard (#ifndef) nor "
                          "#pragma once"});
    }
  }

  // One finding per rule per line: a line mentioning two nondeterministic
  // identifiers is one problem, not two.
  int r1_line = 0, r2_line = 0, r3_line = 0, r5_line = 0, r6_line = 0;

  const auto next_is_call = [&code](size_t i) {
    return i + 1 < code.size() && code[i + 1].Is("(");
  };

  for (size_t i = 0; i < code.size(); ++i) {
    const Token& token = code[i];
    if (token.kind != TokenKind::kIdentifier) continue;
    const std::string_view ident = token.text;
    const int line = token.line;

    if (info.r1_applies && r1_line != line &&
        !LineSuppressed(source, line, RuleId::kR1Nondeterminism)) {
      const bool named = Contains(kNondetIdentifiers, ident);
      const bool called = Contains(kNondetCalls, ident) && next_is_call(i);
      const bool clock_now =
          ident == "now" && next_is_call(i) && i > 0 && code[i - 1].Is("::");
      const bool cpuid = Contains(kCpuidIdentifiers, ident) &&
                         !(info.in_simd_dispatch &&
                           LineHasTag(source, line, "cpuid-ok"));
      if (named || called || clock_now || cpuid) {
        r1_line = line;
        findings.push_back(
            {RuleId::kR1Nondeterminism, path, line,
             cpuid ? "cpu feature probe '" + std::string(ident) +
                         "' — hardware dispatch is only allowed in "
                         "src/base/simd/ under `// geodp: cpuid-ok`"
                   : "nondeterministic source '" + std::string(ident) +
                         "' — use the seeded xoshiro256++ substreams in "
                         "src/base/rng.h (or geodp::Timer for wall-clock)"});
      }
    }

    if (info.r2_applies && r2_line != line &&
        !LineSuppressed(source, line, RuleId::kR2PrivacyBoundary) &&
        !LineHasTag(source, line, "per-sample") &&
        !LineHasTag(source, line, "sensitivity-checked") &&
        IsPerSampleIdentifier(ident)) {
      r2_line = line;
      findings.push_back(
          {RuleId::kR2PrivacyBoundary, path, line,
           "per-sample gradient identifier '" + std::string(ident) +
               "' outside src/clip/ — clip before aggregation and "
               "annotate `// geodp: per-sample` (transport) or "
               "`// geodp: sensitivity-checked` (post-clip use)"});
    }

    if (info.r3_applies && r3_line != line &&
        !LineSuppressed(source, line, RuleId::kR3CheckAbort) &&
        !LineHasTag(source, line, "check-ok")) {
      const bool check = StartsWith(ident, "GEODP_CHECK");
      const bool aborts = Contains(kAbortCalls, ident) && next_is_call(i);
      if (check || aborts) {
        r3_line = line;
        findings.push_back(
            {RuleId::kR3CheckAbort, path, line,
             std::string("'").append(ident).append(
                 "' in a Status-returning library path — return "
                 "geodp::Status, or annotate a true internal invariant "
                 "with `// geodp: check-ok`")});
      }
    }

    // R4b: using-directives in headers leak into every includer.
    if (info.is_header &&
        !LineSuppressed(source, line, RuleId::kR4HeaderHygiene) &&
        ident == "using" && i + 1 < code.size() &&
        code[i + 1].IsIdent("namespace")) {
      findings.push_back({RuleId::kR4HeaderHygiene, path, line,
                          "`using namespace` in a header leaks into every "
                          "translation unit that includes it"});
    }

    // R4c: <iostream> drags static initializers into library code.
    if (info.iostream_banned &&
        !LineSuppressed(source, line, RuleId::kR4HeaderHygiene) &&
        ident == "include" && preprocessor_lines.count(line) != 0 &&
        i + 2 < code.size() && code[i + 1].Is("<") &&
        code[i + 2].IsIdent("iostream")) {
      findings.push_back({RuleId::kR4HeaderHygiene, path, line,
                          "<iostream> outside logging/CLI/tools — library "
                          "code logs via base/check.h or returns Status"});
    }

    if (info.r5_applies && r5_line != line &&
        preprocessor_lines.count(line) == 0 &&
        !LineSuppressed(source, line, RuleId::kR5RawIo) &&
        !LineHasTag(source, line, "raw-io-ok")) {
      const bool stream_type = Contains(kRawIoStreamTypes, ident);
      const bool c_call = Contains(kRawIoCalls, ident) && next_is_call(i);
      const bool global_open =
          ident == "open" && next_is_call(i) && i > 0 &&
          code[i - 1].Is("::") &&
          (i < 2 || code[i - 2].kind != TokenKind::kIdentifier);
      if (stream_type || c_call || global_open) {
        r5_line = line;
        findings.push_back(
            {RuleId::kR5RawIo, path, line,
             "raw file I/O '" + std::string(ident) +
                 "' outside src/base/io/ — use ReadFileWithRetry / "
                 "AtomicWriteFile / RetryingWriter (base/io/file_io.h) "
                 "so the write gets retry, errno classification and "
                 "fault-injection coverage, or annotate "
                 "`// geodp: raw-io-ok` with a rationale"});
      }
    }

    if (info.r6_applies && r6_line != line &&
        !LineSuppressed(source, line, RuleId::kR6ReinterpretCast) &&
        ident == "reinterpret_cast") {
      r6_line = line;
      findings.push_back(
          {RuleId::kR6ReinterpretCast, path, line,
           "reinterpret_cast outside src/base/byte_view.h — use PunCast "
           "from base/byte_view.h (or std::memcpy for an object's bytes) "
           "so every type pun stays behind the audited, "
           "static_assert-guarded helper"});
    }
  }
}

}  // namespace lint
}  // namespace geodp
