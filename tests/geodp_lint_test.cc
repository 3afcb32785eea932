// Tests for tools/geodp_lint: each fixture under tests/lint_fixtures/ seeds
// exactly one violation of one rule (or none, for the allowlisted/annotated
// counterparts); assertions pin the exact rule ID, virtual path and line.
//
// Fixtures are linted under *virtual* repo-relative paths so rule
// applicability (allowlists, src/clip/ boundary, header-only rules) can be
// exercised without planting violations in the real tree. LintTree skips the
// lint_fixtures/ directory, so the seeded files never trip the CI tree scan.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "geodp_lint/lint.h"
#include "geodp_lint/tokenizer.h"

namespace geodp {
namespace lint {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(GEODP_LINT_FIXTURE_DIR) + "/" + name;
}

std::vector<Finding> LintFixture(const std::string& fixture,
                                 const std::string& virtual_path) {
  StatusOr<std::vector<Finding>> result =
      LintFile(FixturePath(fixture), virtual_path);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  return result.value();
}

TEST(GeodpLintR1, RandomDeviceFlaggedWithExactLocation) {
  const std::vector<Finding> findings =
      LintFixture("r1_random_device.cc", "src/core/seed_source.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, RuleId::kR1Nondeterminism);
  EXPECT_STREQ(RuleIdName(findings[0].rule), "R1");
  EXPECT_EQ(findings[0].path, "src/core/seed_source.cc");
  EXPECT_EQ(findings[0].line, 7);
  EXPECT_NE(findings[0].message.find("random_device"), std::string::npos);
}

TEST(GeodpLintR1, RawClockNowFlagged) {
  const std::vector<Finding> findings =
      LintFixture("r1_clock_now.cc", "src/obs/wallclock.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, RuleId::kR1Nondeterminism);
  EXPECT_EQ(findings[0].path, "src/obs/wallclock.cc");
  EXPECT_EQ(findings[0].line, 7);
  EXPECT_NE(findings[0].message.find("now"), std::string::npos);
}

TEST(GeodpLintR1, RngImplementationIsAllowlisted) {
  // The identical engine use is clean under src/base/rng.cc but a finding
  // anywhere else: applicability is decided purely from the path.
  EXPECT_TRUE(LintFixture("r1_allowlisted_rng.cc", "src/base/rng.cc").empty());

  const std::vector<Finding> findings =
      LintFixture("r1_allowlisted_rng.cc", "src/core/alt_rng.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, RuleId::kR1Nondeterminism);
  EXPECT_EQ(findings[0].line, 8);
  EXPECT_NE(findings[0].message.find("mt19937"), std::string::npos);
}

TEST(GeodpLintR1, TestsAndBenchesAreExempt) {
  EXPECT_TRUE(
      LintFixture("r1_random_device.cc", "tests/some_test.cc").empty());
  EXPECT_TRUE(LintFixture("r1_clock_now.cc", "bench/bench_util.cc").empty());
}

TEST(GeodpLintR1, NolintSuppressesTheFlaggedLine) {
  EXPECT_TRUE(LintFixture("r1_nolint.cc", "src/core/seeded_tool.cc").empty());
}

TEST(GeodpLintR1, UnannotatedCpuidProbeFlaggedWithExactLocation) {
  const std::vector<Finding> findings = LintFixture(
      "r1_cpuid_feature_detect.cc", "src/core/feature_probe.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, RuleId::kR1Nondeterminism);
  EXPECT_STREQ(RuleIdName(findings[0].rule), "R1");
  EXPECT_EQ(findings[0].path, "src/core/feature_probe.cc");
  EXPECT_EQ(findings[0].line, 7);
  EXPECT_NE(findings[0].message.find("__builtin_cpu_supports"),
            std::string::npos);
  EXPECT_NE(findings[0].message.find("src/base/simd/"), std::string::npos);
}

TEST(GeodpLintR1, CpuidOkEscapeValidOnlyUnderSimdDispatch) {
  // The annotated probe is clean in the dispatch layer...
  EXPECT_TRUE(
      LintFixture("r1_cpuid_ok_in_simd.cc", "src/base/simd/dispatch.cc")
          .empty());

  // ...but the same annotation does not excuse a probe anywhere else.
  const std::vector<Finding> findings =
      LintFixture("r1_cpuid_ok_in_simd.cc", "src/core/feature_probe.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, RuleId::kR1Nondeterminism);
  EXPECT_EQ(findings[0].line, 8);
  EXPECT_NE(findings[0].message.find("cpuid-ok"), std::string::npos);
}

TEST(GeodpLintR1, UnannotatedCpuidProbeInSimdDispatchStillFlagged) {
  const std::vector<Finding> findings = LintFixture(
      "r1_cpuid_feature_detect.cc", "src/base/simd/dispatch.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, RuleId::kR1Nondeterminism);
  EXPECT_EQ(findings[0].line, 7);
}

TEST(GeodpLintR2, SimdDispatchLayerIsNotExemptFromPerSampleRule) {
  // src/base/simd/ escapes cpuid R1 findings only — the per-sample privacy
  // boundary applies there like everywhere else outside src/clip/.
  const std::vector<Finding> findings = LintFixture(
      "r2_per_sample_leak.cc", "src/base/simd/kernels_extra.cc");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, RuleId::kR2PrivacyBoundary);
  EXPECT_EQ(findings[1].rule, RuleId::kR2PrivacyBoundary);
}

TEST(GeodpLintR2, UnannotatedPerSampleIdentifierFlagged) {
  const std::vector<Finding> findings =
      LintFixture("r2_per_sample_leak.cc", "src/stats/per_sample_export.cc");
  // Two layers of R2 fire: the name scan on the per-sample identifier, and
  // the taint pass on the return of the local it was folded into.
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, RuleId::kR2PrivacyBoundary);
  EXPECT_STREQ(RuleIdName(findings[0].rule), "R2");
  EXPECT_EQ(findings[0].path, "src/stats/per_sample_export.cc");
  EXPECT_EQ(findings[0].line, 10);
  EXPECT_NE(findings[0].message.find("per_sample_gradient"),
            std::string::npos);
  EXPECT_EQ(findings[1].rule, RuleId::kR2PrivacyBoundary);
  EXPECT_EQ(findings[1].line, 11);
  EXPECT_NE(findings[1].message.find("escapes via local 'total'"),
            std::string::npos);
  EXPECT_NE(findings[1].message.find("per_sample_gradient -> total"),
            std::string::npos);
}

TEST(GeodpLintR2, ClipSubsystemIsExempt) {
  EXPECT_TRUE(
      LintFixture("r2_per_sample_leak.cc", "src/clip/export.cc").empty());
}

TEST(GeodpLintR2, UnannotatedGhostNormIdentifierFlagged) {
  // ghost_norm* identifiers carry per-sample gradient norms even though no
  // per-sample gradient is materialized, so the privacy boundary covers
  // them like the materialized spellings.
  const std::vector<Finding> findings =
      LintFixture("r2_ghost_norm_leak.cc", "src/optim/ghost_export.cc");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, RuleId::kR2PrivacyBoundary);
  EXPECT_EQ(findings[0].line, 11);
  EXPECT_NE(findings[0].message.find("ghost_norm"), std::string::npos);
  EXPECT_EQ(findings[1].rule, RuleId::kR2PrivacyBoundary);
  EXPECT_EQ(findings[1].line, 12);
  EXPECT_NE(findings[1].message.find("ghost_norm_sq -> total"),
            std::string::npos);
}

TEST(GeodpLintR2, AnnotatedGhostNormUseIsExempt) {
  EXPECT_TRUE(
      LintFixture("r2_ghost_norm_leak.cc", "src/clip/ghost_export.cc")
          .empty());
}

TEST(GeodpLintR3, CheckMacroInDpFlagged) {
  const std::vector<Finding> findings =
      LintFixture("r3_check_in_dp.cc", "src/dp/new_mechanism.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, RuleId::kR3CheckAbort);
  EXPECT_STREQ(RuleIdName(findings[0].rule), "R3");
  EXPECT_EQ(findings[0].path, "src/dp/new_mechanism.cc");
  EXPECT_EQ(findings[0].line, 8);
  EXPECT_NE(findings[0].message.find("GEODP_CHECK_GT"), std::string::npos);
}

TEST(GeodpLintR3, CheckMacroOutsideGuardedPathsIsAllowed) {
  EXPECT_TRUE(
      LintFixture("r3_check_in_dp.cc", "src/nn/half_life.cc").empty());
}

TEST(GeodpLintR3, AbortInCkptFlagged) {
  const std::vector<Finding> findings =
      LintFixture("r3_abort_in_ckpt.cc", "src/ckpt/give_up.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, RuleId::kR3CheckAbort);
  EXPECT_EQ(findings[0].line, 8);
  EXPECT_NE(findings[0].message.find("abort"), std::string::npos);
}

TEST(GeodpLintR3, CheckMacroInClipFlagged) {
  // src/clip/ joined the R3 surface when ClipAndSum's empty-batch abort
  // was replaced with defined behavior: new hard-stops there must carry a
  // check-ok justification.
  const std::vector<Finding> findings =
      LintFixture("r3_check_in_dp.cc", "src/clip/new_strategy.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, RuleId::kR3CheckAbort);
}

TEST(GeodpLintR3, AbortInClipFlagged) {
  const std::vector<Finding> findings =
      LintFixture("r3_abort_in_ckpt.cc", "src/clip/give_up.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, RuleId::kR3CheckAbort);
  EXPECT_EQ(findings[0].line, 8);
}

TEST(GeodpLintR4, HeaderWithoutGuardFlagged) {
  const std::vector<Finding> findings =
      LintFixture("r4_missing_guard.h", "src/nn/gadget.h");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, RuleId::kR4HeaderHygiene);
  EXPECT_STREQ(RuleIdName(findings[0].rule), "R4");
  EXPECT_EQ(findings[0].path, "src/nn/gadget.h");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("guard"), std::string::npos);
}

TEST(GeodpLintR4, UsingNamespaceInHeaderFlagged) {
  const std::vector<Finding> findings =
      LintFixture("r4_using_namespace.h", "src/nn/handy.h");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, RuleId::kR4HeaderHygiene);
  EXPECT_EQ(findings[0].line, 6);
  EXPECT_NE(findings[0].message.find("using namespace"), std::string::npos);
}

TEST(GeodpLintR4, IostreamInLibraryFlaggedButAllowedInTools) {
  const std::vector<Finding> findings =
      LintFixture("r4_iostream.cc", "src/tensor/debug_dump.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, RuleId::kR4HeaderHygiene);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("<iostream>"), std::string::npos);

  EXPECT_TRUE(LintFixture("r4_iostream.cc", "tools/debug_dump.cc").empty());
}

TEST(GeodpLintR5, RawOfstreamFlaggedWithExactLocation) {
  const std::vector<Finding> findings =
      LintFixture("r5_raw_ofstream.cc", "src/obs/debug_dump.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, RuleId::kR5RawIo);
  EXPECT_STREQ(RuleIdName(findings[0].rule), "R5");
  EXPECT_EQ(findings[0].path, "src/obs/debug_dump.cc");
  EXPECT_EQ(findings[0].line, 8);
  EXPECT_NE(findings[0].message.find("ofstream"), std::string::npos);
  EXPECT_NE(findings[0].message.find("base/io"), std::string::npos);
}

TEST(GeodpLintR5, IoSubstrateItselfIsExempt) {
  // src/base/io/ is where the raw syscalls are supposed to live.
  EXPECT_TRUE(
      LintFixture("r5_raw_ofstream.cc", "src/base/io/file_io.cc").empty());
}

TEST(GeodpLintR5, ToolsAndTestsAreExempt) {
  EXPECT_TRUE(
      LintFixture("r5_raw_ofstream.cc", "tools/debug_dump.cc").empty());
  EXPECT_TRUE(
      LintFixture("r5_raw_ofstream.cc", "tests/some_test.cc").empty());
}

TEST(GeodpLintR5, RawIoOkAnnotationExcusesTheGuardedLine) {
  EXPECT_TRUE(
      LintFixture("r5_fopen_annotated.cc", "src/core/probe.cc").empty());
}

TEST(GeodpLintR5, UnannotatedFopenCallFlagged) {
  const std::string code = "std::FILE* f = std::fopen(path, \"wb\");\n";
  const std::vector<Finding> findings =
      LintContent("src/core/raw_fopen.cc", code);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, RuleId::kR5RawIo);
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("fopen"), std::string::npos);
}

TEST(GeodpLintR5, GlobalOpenCallFlaggedButMethodOpenIsNot) {
  const std::vector<Finding> findings = LintContent(
      "src/core/raw_open.cc", "int fd = ::open(path, O_RDONLY);\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, RuleId::kR5RawIo);

  // Method calls named Open/open (e.g. RetryingWriter::Open) are not raw
  // I/O, and neither is a qualified call on another class.
  EXPECT_TRUE(LintContent("src/core/method_open.cc",
                          "writer.open(path); RetryingWriter::open(x);\n")
                  .empty());
}

TEST(GeodpLintR5, NolintSuppressesTheFlaggedLine) {
  const std::string code =
      "std::ofstream out(path);  // geodp: nolint(R5) legacy escape\n";
  EXPECT_TRUE(LintContent("src/core/nolint_io.cc", code).empty());
}

TEST(GeodpLintAnn, MisspelledTagIsItselfAFinding) {
  const std::vector<Finding> findings =
      LintFixture("ann_bad_tag.cc", "src/core/answer.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, RuleId::kAnnotation);
  EXPECT_STREQ(RuleIdName(findings[0].rule), "ANN");
  EXPECT_EQ(findings[0].path, "src/core/answer.cc");
  EXPECT_EQ(findings[0].line, 6);
  EXPECT_NE(findings[0].message.find("sensitvity-checked"),
            std::string::npos);
}

TEST(GeodpLintClean, BannedTokensInCommentsAndStringsAreIgnored) {
  EXPECT_TRUE(LintFixture("clean_library.cc", "src/core/clean.cc").empty());
}

TEST(GeodpLintEngine, StringLiteralsAndCommentsAreStripped) {
  const std::string code =
      "/* std::random_device in a block comment */\n"
      "const char* kDoc = \"srand(1); std::mt19937 gen;\";\n";
  EXPECT_TRUE(LintContent("src/core/strings.cc", code).empty());
}

TEST(GeodpLintEngine, DigitSeparatorDoesNotOpenCharLiteral) {
  // A naive scanner treats the ' in 1'000 as a char-literal open and eats
  // the rest of the line, hiding the violation that follows it.
  const std::string code = "int n = 1'000'000; std::mt19937 gen;\n";
  const std::vector<Finding> findings =
      LintContent("src/core/digits.cc", code);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, RuleId::kR1Nondeterminism);
  EXPECT_EQ(findings[0].line, 1);
}

TEST(GeodpLintEngine, MultiRuleNolintSuppressesBothRules) {
  const std::string annotation = "// geodp: nolint(R1,R3)\n";
  const std::string code =
      annotation + "GEODP_CHECK(std::time(nullptr) > 0);\n";
  EXPECT_TRUE(LintContent("src/dp/clocked.cc", code).empty());
}

TEST(GeodpLintEngine, NolintWithUnknownRuleIsAnnotationFinding) {
  const std::string code = "int x = 0;  // geodp: nolint(R9)\n";
  const std::vector<Finding> findings =
      LintContent("src/core/bad_nolint.cc", code);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, RuleId::kAnnotation);
  EXPECT_EQ(findings[0].line, 1);
}

TEST(GeodpLintEngine, QualifiedNameProseIsNotAnAnnotation) {
  const std::string code = "// geodp::Rng is the seeded generator type.\n";
  EXPECT_TRUE(LintContent("src/core/prose.cc", code).empty());
}

TEST(GeodpLintEngine, VariableNamedTimeIsNotACall) {
  const std::string code = "double time = 0.0; double t2 = time + 1.0;\n";
  EXPECT_TRUE(LintContent("src/core/named_time.cc", code).empty());
}

TEST(GeodpLintFormat, FindingFormatIsStable) {
  const Finding finding{RuleId::kR1Nondeterminism, "src/a/b.cc", 12,
                        "message text"};
  EXPECT_EQ(FormatFinding(finding), "src/a/b.cc:12: [R1] message text");
}

TEST(GeodpLintR2v2, TaintThroughInnocentLocalFlaggedAtTheEscape) {
  // No per-sample-named identifier appears at the sink — only the taint
  // pass can connect the annotated parameter to the returned aggregate.
  const std::vector<Finding> findings =
      LintFixture("r2v2_taint_via_local.cc", "src/stats/norm_export.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, RuleId::kR2PrivacyBoundary);
  EXPECT_EQ(findings[0].line, 12);
  EXPECT_NE(findings[0].message.find("escapes via local 'acc'"),
            std::string::npos);
  EXPECT_NE(findings[0].message.find("through return"), std::string::npos);
  EXPECT_NE(findings[0].message.find("norms -> n -> acc"),
            std::string::npos);
}

TEST(GeodpLintR2v2, SensitivityCheckedAnnotationSanitizesTheLocal) {
  EXPECT_TRUE(
      LintFixture("r2v2_sanitized.cc", "src/stats/norm_export.cc").empty());
}

TEST(GeodpLintR2v2, GhostAccumulatorEscapesThroughCallAndReturn) {
  // Mirrors src/optim/ghost_grad.cc with its sensitivity-checked
  // annotation removed: the weights derived from ghost norms escape into
  // the model parameter and out through the return value.
  const std::vector<Finding> findings = LintFixture(
      "r2v2_ghost_accumulator.cc", "src/optim/ghost_accumulate.cc");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, RuleId::kR2PrivacyBoundary);
  EXPECT_EQ(findings[0].line, 22);
  EXPECT_NE(
      findings[0].message.find("call 'Accumulate' on parameter 'model'"),
      std::string::npos);
  EXPECT_NE(findings[0].message.find("ghost_norm_sq -> weights"),
            std::string::npos);
  EXPECT_EQ(findings[1].rule, RuleId::kR2PrivacyBoundary);
  EXPECT_EQ(findings[1].line, 23);
  EXPECT_NE(findings[1].message.find("through return"), std::string::npos);
}

TEST(GeodpLintR2v2, BackwardSumResultIsAPerSampleSource) {
  // Neither the receiver nor the local has a per-sample name: only the
  // source-call list ties the summed loss's per-sample rows to the local
  // that is returned.
  const std::string code =
      "Tensor LossRows(SoftmaxCrossEntropy& loss) {\n"
      "  Tensor rows = loss.BackwardSum();\n"
      "  return rows;\n"
      "}\n";
  const std::vector<Finding> findings =
      LintContent("src/optim/loss_rows.cc", code);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, RuleId::kR2PrivacyBoundary);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("escapes via local 'rows'"),
            std::string::npos);
  EXPECT_NE(findings[0].message.find("through return"), std::string::npos);
}

TEST(GeodpLintR2v2, FlightRecorderRecordOnALocalIsAReleaseSink) {
  // The fixture pairs two identical shapes: Record() on a local recorder
  // (must report — the ring buffer outlives the step and surfaces on
  // /flightz and in postmortems) and Add() on a local accumulator (must
  // stay a silent store). Exactly one finding proves the sink list, not
  // a broader rule change, is what bites.
  const std::vector<Finding> findings = LintFixture(
      "r2_flight_recorder_sink.cc", "src/optim/flight_note.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, RuleId::kR2PrivacyBoundary);
  EXPECT_EQ(findings[0].line, 21);
  EXPECT_NE(findings[0].message.find("observability sink 'Record'"),
            std::string::npos);
  EXPECT_NE(findings[0].message.find("sample_norm -> scaled"),
            std::string::npos);
}

TEST(GeodpLintR2v2, ClipSubsystemIsExemptFromTaintToo) {
  EXPECT_TRUE(
      LintFixture("r2v2_taint_via_local.cc", "src/clip/norm_export.cc")
          .empty());
  EXPECT_TRUE(
      LintFixture("r2v2_ghost_accumulator.cc", "src/clip/ghost.cc")
          .empty());
}

TEST(GeodpLintR6, RawCastFlaggedAndNolintSuppressed) {
  // The fixture seeds two casts; the second carries nolint(R6).
  const std::vector<Finding> findings =
      LintFixture("r6_reinterpret_cast.cc", "src/tensor/raw_cast.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, RuleId::kR6ReinterpretCast);
  EXPECT_STREQ(RuleIdName(findings[0].rule), "R6");
  EXPECT_EQ(findings[0].path, "src/tensor/raw_cast.cc");
  EXPECT_EQ(findings[0].line, 9);
  EXPECT_NE(findings[0].message.find("byte_view.h"), std::string::npos);
}

TEST(GeodpLintR6, ByteViewHeaderIsTheOneExemption) {
  EXPECT_TRUE(
      LintFixture("r6_in_byte_view.h", "src/base/byte_view.h").empty());

  const std::vector<Finding> findings =
      LintFixture("r6_in_byte_view.h", "src/obs/pun_helper.h");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, RuleId::kR6ReinterpretCast);
  EXPECT_EQ(findings[0].line, 11);
}

TEST(GeodpLintR6, TestsAndToolsAreCoveredToo) {
  // Unlike R2/R5, the cast ban has no test/tool exemption: byte_view.h is
  // usable everywhere, so there is no reason to pun around it.
  const std::string code = "char* p = reinterpret_cast<char*>(&x);\n";
  EXPECT_EQ(LintContent("tests/some_test.cc", code).size(), 1u);
  EXPECT_EQ(LintContent("tools/some_tool.cc", code).size(), 1u);
}

TEST(GeodpLintTokenizer, RawStringWithDelimiterIsOneToken) {
  const std::vector<Token> tokens =
      Tokenize("auto s = R\"x(no \"escape\" here)x\";");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[3].kind, TokenKind::kString);
  EXPECT_EQ(tokens[3].text, "R\"x(no \"escape\" here)x\"");
}

TEST(GeodpLintTokenizer, HexFloatAndDigitSeparatorAreSingleNumbers) {
  const std::vector<Token> tokens = Tokenize("0x1.8p-3 1'000'000ull");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kNumber);
  EXPECT_EQ(tokens[0].text, "0x1.8p-3");
  EXPECT_EQ(tokens[1].text, "1'000'000ull");
}

TEST(GeodpLintTokenizer, PunctuatorsMatchLongestFirst) {
  const std::vector<Token> tokens = Tokenize("a <<= b->*c;");
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_TRUE(tokens[1].Is("<<="));
  EXPECT_TRUE(tokens[3].Is("->*"));
}

TEST(GeodpLintTokenizer, CommentsArePreservedWithPositions) {
  const std::vector<Token> tokens =
      Tokenize("int x;  // geodp: per-sample\n/* block */ int y;");
  ASSERT_EQ(tokens.size(), 8u);
  EXPECT_EQ(tokens[3].kind, TokenKind::kComment);
  EXPECT_EQ(tokens[3].text, "// geodp: per-sample");
  EXPECT_EQ(tokens[3].line, 1);
  EXPECT_EQ(tokens[4].kind, TokenKind::kComment);
  EXPECT_EQ(tokens[4].line, 2);
}

TEST(GeodpLintTokenizer, BackslashContinuationExtendsLineComment) {
  // A line comment ending in a backslash swallows the next line — the
  // mt19937 below is commented out and must not be a finding.
  const std::string code = "// hidden \\\nstd::mt19937 gen;\nint x;\n";
  EXPECT_TRUE(LintContent("src/core/cont.cc", code).empty());
}

TEST(GeodpLintFile, MissingFileIsNotFound) {
  StatusOr<std::vector<Finding>> result =
      LintFile(FixturePath("does_not_exist.cc"), "src/x.cc");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace lint
}  // namespace geodp
