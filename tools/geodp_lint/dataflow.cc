#include "geodp_lint/dataflow.h"

#include <array>
#include <cstddef>
#include <map>
#include <set>

namespace geodp {
namespace lint {
namespace {

constexpr size_t kNpos = static_cast<size_t>(-1);

// Calls whose return value (or out-parameter) is per-sample data even when
// every argument is clean. Row b of BackwardSum is the gradient of sample
// b's own loss.
constexpr std::array<std::string_view, 1> kPerSampleSourceCalls = {
    "BackwardSum"};

// Free functions that only read a value: feeding them a tainted argument
// computes with it but does not release it. Everything not listed is
// treated as crossing out of the function.
constexpr std::array<std::string_view, 16> kValueReaders = {
    "min",  "max",  "clamp",    "abs",   "fabs", "sqrt",
    "pow",  "exp",  "log",      "log2",  "isfinite", "isnan",
    "move", "swap", "fill",     "accumulate"};

// Observability sinks: the flight recorder and phase profiler persist
// their arguments beyond the training step (ring buffer snapshots,
// /flightz, postmortem dumps, folded-stack exports), so handing them
// per-sample data is a release even when the receiver is a local object
// — never just a store into it.
constexpr std::array<std::string_view, 4> kObservabilitySinkCalls = {
    "Record", "ProfilerEnterSpan", "ProfilerExitSpan", "ProfilerRecordLeaf"};

// `keyword (...)` is control flow, not a call. Branching on a tainted
// value is out of scope for this pass (no implicit-flow tracking).
constexpr std::array<std::string_view, 10> kControlKeywords = {
    "if",      "while",    "for",   "switch", "return",
    "alignof", "decltype", "catch", "sizeof", "static_assert"};

// Tokens allowed between the signature's ')' and the body's '{'.
constexpr std::array<std::string_view, 6> kSignatureSuffixes = {
    "const", "noexcept", "override", "final", "try", "mutable"};

constexpr std::array<std::string_view, 11> kAssignOps = {
    "=",  "+=", "-=", "*=",  "/=", "%=",
    "&=", "|=", "^=", "<<=", ">>="};

template <typename Container>
bool Contains(const Container& container, std::string_view value) {
  for (const auto& element : container) {
    if (element == value) return true;
  }
  return false;
}

bool IsMemberName(std::string_view name) {
  return name == "this" || (!name.empty() && name.back() == '_');
}

class TaintPass {
 public:
  TaintPass(const std::string& path, const AnnotatedSource& source,
            std::vector<Finding>& findings)
      : path_(path),
        source_(source),
        code_(source.code),
        findings_(findings) {}

  void Run() {
    size_t i = 0;
    while (i < code_.size()) {
      if (!code_[i].Is("{")) {
        ++i;
        continue;
      }
      // Walk back over `const`/`noexcept`/... to see whether this brace
      // opens a function body (preceded by a parameter list) rather than
      // a class, namespace, enum or initializer.
      size_t k = i;
      while (k > 0 && code_[k - 1].kind == TokenKind::kIdentifier &&
             Contains(kSignatureSuffixes, code_[k - 1].text)) {
        --k;
      }
      if (k == 0 || !code_[k - 1].Is(")")) {
        ++i;
        continue;
      }
      const size_t sig_close = k - 1;
      const size_t sig_open = MatchBackward(sig_close);
      const size_t body_close = MatchForward(i);
      if (sig_open == kNpos || body_close == kNpos) {
        ++i;
        continue;
      }
      AnalyzeFunction(sig_open, sig_close, i, body_close);
      i = body_close + 1;
    }
  }

 private:
  // ---- token-span helpers ------------------------------------------------

  size_t MatchForward(size_t open) const {
    const std::string_view open_text = code_[open].text;
    const std::string_view close_text = open_text == "(" ? ")" : "}";
    int depth = 0;
    for (size_t i = open; i < code_.size(); ++i) {
      if (code_[i].Is(open_text)) ++depth;
      else if (code_[i].Is(close_text) && --depth == 0) return i;
    }
    return kNpos;
  }

  size_t MatchBackward(size_t close) const {
    const std::string_view close_text = code_[close].text;
    const std::string_view open_text = close_text == ")" ? "(" : "[";
    int depth = 0;
    for (size_t i = close + 1; i > 0; --i) {
      const Token& token = code_[i - 1];
      if (token.Is(close_text)) ++depth;
      else if (token.Is(open_text) && --depth == 0) return i - 1;
    }
    return kNpos;
  }

  /// Given the last token of an lvalue chain (`result.x[i]` -> the `]`,
  /// `weight_.grad` -> `grad`), walks left through `.`/`->`/`::`
  /// connectors and subscript/call groups and returns the index of the
  /// base identifier (`result`, `weight_`), or kNpos.
  size_t WalkChainBase(size_t j) const {
    while (true) {
      while (code_[j].Is("]") || code_[j].Is(")")) {
        const size_t open = MatchBackward(j);
        if (open == kNpos || open == 0) return kNpos;
        j = open - 1;
      }
      if (code_[j].kind != TokenKind::kIdentifier) return kNpos;
      if (j >= 2 && (code_[j - 1].Is(".") || code_[j - 1].Is("->") ||
                     code_[j - 1].Is("::"))) {
        j -= 2;
        continue;
      }
      return j;
    }
  }

  // ---- taint bookkeeping -------------------------------------------------

  void Taint(const std::string& var, const std::string& parent) {
    if (var.empty() || tainted_.count(var) != 0) return;
    std::vector<std::string> chain;
    const auto it = tainted_.find(parent);
    if (it != tainted_.end()) chain = it->second;
    else chain.push_back(parent);
    if (chain.empty() || chain.back() != var) chain.push_back(var);
    tainted_[var] = std::move(chain);
  }

  /// First identifier in [from, to) that carries or produces per-sample
  /// data: a tainted local, a per-sample-named identifier, or a source
  /// call. Used for propagation.
  std::string FirstTaintSource(size_t from, size_t to) const {
    for (size_t i = from; i < to && i < code_.size(); ++i) {
      const Token& token = code_[i];
      if (token.kind != TokenKind::kIdentifier) continue;
      if (tainted_.count(token.text) != 0) return token.text;
      if (IsPerSampleIdentifier(token.text)) return token.text;
      if (Contains(kPerSampleSourceCalls, token.text) && i + 1 < to &&
          code_[i + 1].Is("(")) {
        return token.text;
      }
    }
    return std::string();
  }

  /// First *tainted local* in [from, to). Sinks trigger only on these:
  /// per-sample-named identifiers at a sink are already flagged by the
  /// name rule in rules.cc, so reporting them here would double up.
  std::string FirstTaintedLocal(size_t from, size_t to) const {
    for (size_t i = from; i < to && i < code_.size(); ++i) {
      if (code_[i].kind == TokenKind::kIdentifier &&
          tainted_.count(code_[i].text) != 0) {
        return code_[i].text;
      }
    }
    return std::string();
  }

  void Report(int line, const std::string& via, const std::string& how,
              bool suppressed) {
    if (suppressed || line == last_report_line_) return;
    last_report_line_ = line;
    std::string chain_text;
    const auto it = tainted_.find(via);
    if (it != tainted_.end()) {
      for (const std::string& link : it->second) {
        if (!chain_text.empty()) chain_text += " -> ";
        chain_text += link;
      }
    } else {
      chain_text = via;
    }
    findings_.push_back(
        {RuleId::kR2PrivacyBoundary, path_, line,
         "per-sample value escapes via local '" + via + "' through " + how +
             " (taint chain: " + chain_text +
             ") — clip before release inside src/clip/, annotate "
             "`// geodp: sensitivity-checked` once the sensitivity bound "
             "is applied, or `// geodp: per-sample` for authorized "
             "transport"});
  }

  // ---- per-function analysis ---------------------------------------------

  void AnalyzeFunction(size_t sig_open, size_t sig_close, size_t body_open,
                       size_t body_close) {
    tainted_.clear();
    ref_params_.clear();
    last_report_line_ = 0;
    MarkParameters(sig_open, sig_close);

    // Statements end at `;` outside parens and at braces outside parens
    // (block structure is flattened: each fragment is analyzed on its
    // own, which over-approximates but never loses a statement).
    size_t start = body_open + 1;
    int paren_depth = 0;
    for (size_t i = body_open + 1; i < body_close; ++i) {
      const Token& token = code_[i];
      if (token.Is("(") || token.Is("[")) ++paren_depth;
      else if (token.Is(")") || token.Is("]")) --paren_depth;
      if (paren_depth > 0) continue;
      if (token.Is(";") || token.Is("{") || token.Is("}")) {
        if (i > start) ProcessStatement(start, i);
        start = i + 1;
      }
    }
    if (body_close > start) ProcessStatement(start, body_close);
  }

  void MarkParameters(size_t sig_open, size_t sig_close) {
    size_t part_start = sig_open + 1;
    int paren_depth = 0;
    int angle_depth = 0;
    for (size_t i = sig_open + 1; i <= sig_close; ++i) {
      const Token& token = code_[i];
      const bool splits = i == sig_close ||
                          (token.Is(",") && paren_depth == 0 &&
                           angle_depth == 0);
      if (splits) {
        MarkOneParameter(part_start, i);
        part_start = i + 1;
        continue;
      }
      if (token.Is("(") || token.Is("[")) ++paren_depth;
      else if (token.Is(")") || token.Is("]")) --paren_depth;
      else if (token.Is("<")) ++angle_depth;
      else if (token.Is(">") && angle_depth > 0) --angle_depth;
      else if (token.Is(">>") && angle_depth > 0) angle_depth -= 2;
      if (angle_depth < 0) angle_depth = 0;
    }
  }

  void MarkOneParameter(size_t from, size_t to) {
    size_t name_idx = kNpos;
    bool by_reference = false;
    for (size_t i = from; i < to; ++i) {
      const Token& token = code_[i];
      if (token.Is("=")) break;  // default argument
      if (token.kind == TokenKind::kIdentifier) name_idx = i;
      if (token.Is("&") || token.Is("&&") || token.Is("*")) {
        by_reference = true;
      }
    }
    if (name_idx == kNpos) return;
    const Token& name = code_[name_idx];
    if (by_reference) ref_params_.insert(name.text);
    if (IsPerSampleIdentifier(name.text) ||
        LineHasTag(source_, name.line, "per-sample")) {
      tainted_[name.text] = {name.text};
    }
  }

  void ProcessStatement(size_t s, size_t e) {
    bool sanitized = false;
    bool suppressed = false;
    int last_line = 0;
    for (size_t i = s; i < e; ++i) {
      const int line = code_[i].line;
      if (line == last_line) continue;
      last_line = line;
      if (LineHasTag(source_, line, "sensitivity-checked")) sanitized = true;
      if (LineHasTag(source_, line, "per-sample") ||
          LineSuppressed(source_, line, RuleId::kR2PrivacyBoundary)) {
        suppressed = true;
      }
    }
    if (sanitized) {
      // The sensitivity bound has been applied: every variable this
      // statement mentions is clean from here on.
      for (size_t i = s; i < e; ++i) {
        if (code_[i].kind == TokenKind::kIdentifier) {
          tainted_.erase(code_[i].text);
        }
      }
      return;
    }
    HandleRangeFor(s, e);
    HandleAssignments(s, e, suppressed);
    HandleCalls(s, e, suppressed);
    HandleReturn(s, e, suppressed);
  }

  // `for (T var : range)` — a tainted range taints the loop variable.
  void HandleRangeFor(size_t s, size_t e) {
    if (!code_[s].IsIdent("for") || s + 1 >= e || !code_[s + 1].Is("(")) {
      return;
    }
    int depth = 0;
    size_t colon = kNpos;
    size_t close = e;
    for (size_t i = s + 1; i < e; ++i) {
      if (code_[i].Is("(") || code_[i].Is("[")) ++depth;
      else if (code_[i].Is(")") || code_[i].Is("]")) {
        if (--depth == 0) {
          close = i;
          break;
        }
      } else if (code_[i].Is(":") && depth == 1 && colon == kNpos) {
        colon = i;
      }
    }
    if (colon == kNpos) return;
    size_t var_idx = kNpos;
    for (size_t i = s + 2; i < colon; ++i) {
      if (code_[i].kind == TokenKind::kIdentifier) var_idx = i;
    }
    if (var_idx == kNpos) return;
    const std::string parent = FirstTaintSource(colon + 1, close);
    if (!parent.empty()) Taint(code_[var_idx].text, parent);
  }

  void HandleAssignments(size_t s, size_t e, bool suppressed) {
    for (size_t i = s + 1; i < e; ++i) {
      if (code_[i].kind != TokenKind::kPunct ||
          !Contains(kAssignOps, code_[i].text)) {
        continue;
      }
      const size_t base_idx = WalkChainBase(i - 1);
      if (base_idx == kNpos) continue;
      const std::string base = code_[base_idx].text;
      const size_t rhs_end = RhsEnd(i + 1, e);
      const std::string parent = FirstTaintSource(i + 1, rhs_end);
      const bool member = IsMemberName(base);
      const bool param_escape = ref_params_.count(base) != 0;
      if (parent.empty()) {
        // Plain reassignment from clean data is a strong update.
        if (code_[i].Is("=") && !member && !param_escape) {
          tainted_.erase(base);
        }
        continue;
      }
      if (member || param_escape) {
        const std::string via = FirstTaintedLocal(i + 1, rhs_end);
        if (!via.empty()) {
          Report(code_[i].line, via,
                 std::string("write to ") +
                     (member ? "member '" : "parameter '") + base + "'",
                 suppressed);
        }
        continue;
      }
      Taint(base, parent);
    }
  }

  size_t RhsEnd(size_t from, size_t e) const {
    int depth = 0;
    for (size_t i = from; i < e; ++i) {
      const Token& token = code_[i];
      if (token.Is("(") || token.Is("[") || token.Is("{")) ++depth;
      else if (token.Is(")") || token.Is("]") || token.Is("}")) {
        if (depth == 0) return i;
        --depth;
      } else if ((token.Is(",") || token.Is(";")) && depth == 0) {
        return i;
      }
    }
    return e;
  }

  void HandleCalls(size_t s, size_t e, bool suppressed) {
    for (size_t i = s; i + 1 < e; ++i) {
      if (code_[i].kind != TokenKind::kIdentifier || !code_[i + 1].Is("(")) {
        continue;
      }
      const std::string& callee = code_[i].text;
      if (Contains(kControlKeywords, callee)) continue;
      const size_t close = MatchForward(i + 1);
      const size_t args_end = close == kNpos ? e : close;
      const std::string via = FirstTaintedLocal(i + 2, args_end);
      if (via.empty()) continue;

      const Token* prev = i > s ? &code_[i - 1] : nullptr;
      if (prev != nullptr && (prev->Is(".") || prev->Is("->"))) {
        // Method call: where does the tainted argument land?
        const size_t base_idx = WalkChainBase(i);
        const std::string base =
            base_idx == kNpos ? std::string() : code_[base_idx].text;
        const bool base_is_call = base_idx != kNpos &&
                                  base_idx + 1 < code_.size() &&
                                  code_[base_idx + 1].Is("(");
        if (Contains(kObservabilitySinkCalls, callee)) {
          Report(code_[i].line, via,
                 "observability sink '" + callee + "'", suppressed);
        } else if (base_idx == kNpos || base_is_call || IsMemberName(base)) {
          Report(code_[i].line, via, "call '" + callee + "'", suppressed);
        } else if (ref_params_.count(base) != 0) {
          Report(code_[i].line, via,
                 "call '" + callee + "' on parameter '" + base + "'",
                 suppressed);
        } else {
          Taint(base, via);  // tainted value stored into a local object
        }
        continue;
      }
      if (prev != nullptr &&
          (prev->Is(">") || prev->Is("&") || prev->Is("*") ||
           (prev->kind == TokenKind::kIdentifier &&
            !prev->IsIdent("return")))) {
        // `Tensor scaled(tainted)` — construction from tainted data.
        Taint(callee, via);
        continue;
      }
      if (Contains(kValueReaders, callee) ||
          callee.compare(0, 6, "GEODP_") == 0) {
        continue;
      }
      Report(code_[i].line, via, "call '" + callee + "'", suppressed);
    }
  }

  void HandleReturn(size_t s, size_t e, bool suppressed) {
    for (size_t i = s; i < e; ++i) {
      if (!code_[i].IsIdent("return") && !code_[i].IsIdent("co_return")) {
        continue;
      }
      const std::string via = FirstTaintedLocal(i + 1, e);
      if (!via.empty()) Report(code_[i].line, via, "return", suppressed);
      return;
    }
  }

  const std::string& path_;
  const AnnotatedSource& source_;
  const std::vector<Token>& code_;
  std::vector<Finding>& findings_;

  std::map<std::string, std::vector<std::string>> tainted_;
  std::set<std::string> ref_params_;
  int last_report_line_ = 0;
};

}  // namespace

void CheckPerSampleTaint(const std::string& path, const PathInfo& info,
                         const AnnotatedSource& source,
                         std::vector<Finding>& findings) {
  if (!info.r2_applies) return;
  TaintPass(path, source, findings).Run();
}

}  // namespace lint
}  // namespace geodp
