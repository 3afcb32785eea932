// geodp_chaos — deterministic chaos-soak harness for the resilience layer.
//
// Epsilon spent by a DP training run is unrecoverable, so the resilience
// claim this repo makes is strong: kill the process at any step, tear any
// checkpoint write, fail any telemetry sink, and a resumed run must still
// produce the same weights, the same telemetry suffix, and the same final
// epsilon as a run that never faulted. This harness proves that claim by
// construction, N times, under seeded fault schedules.
//
// Each schedule runs geodp_cli four times in a scratch directory:
//
//   1. reference  — fault-free run of `iterations` steps; its JSONL
//                   telemetry, saved weights and printed epsilon are the
//                   ground truth.
//   2. faulted    — same run with checkpointing on, armed to crash
//                   (_Exit(87)) at a seeded step K plus one seeded
//                   probabilistic errno/corruption fault (EIO, EINTR,
//                   torn checkpoint payloads, prune failures, ...).
//   3. resume     — restarts from the newest good checkpoint and must
//                   finish cleanly.
//   4. degraded   — fault-free training but every telemetry write fails
//                   (obs.jsonl@p=1:eio); the run must still exit 0 with a
//                   "degraded" marker and byte-identical weights.
//
// Verdicts per schedule:
//   - faulted run exits with the crash code (87), resume exits 0;
//   - faulted telemetry is a byte-exact PREFIX of the reference and
//     resumed telemetry a byte-exact SUFFIX, with no gap between them
//     (an overlap is legal: a torn newest checkpoint makes resume fall
//     back one step and re-emit it identically);
//   - the kill left a parseable flight-recorder postmortem next to the
//     checkpoints whose recorded attempt and last step milestone equal
//     the attempt the resume actually restarted from;
//   - resumed weights are byte-identical to the reference weights;
//   - the printed "epsilon (RDP)" line matches the reference exactly —
//     no double-spent and no lost privacy budget;
//   - the degraded twin exits 0, prints the degraded marker, and its
//     weights are byte-identical to the reference.
//
// The --doctor flag is the canary that keeps the harness honest in CI: it
// extends the resume run by three extra iterations (the options
// fingerprint deliberately excludes the iteration count, so the trainer
// accepts the resume). A healthy harness MUST then fail; CI asserts
// `! geodp_chaos --doctor ...`.
//
// Everything is derived from --seed via Rng::Substream, so a given
// (seed, schedules, iterations) triple replays the exact same fault
// schedule on every machine.

#include <sys/wait.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "base/flags.h"
#include "base/io/file_io.h"
#include "base/rng.h"
#include "base/status.h"
#include "ckpt/checkpoint.h"

namespace geodp {
namespace {

constexpr int kCrashExitCode = 87;  // FaultInjector::kCrashExitCode

struct CmdResult {
  int exit_code = -1;
  std::string log;  // combined stdout+stderr of the child
};

// Runs `cmd` through the shell with stdout/stderr captured to `log_path`,
// returning the child's exit code (or 128+signal when it died on one).
CmdResult RunCommand(const std::string& cmd, const std::string& log_path) {
  CmdResult result;
  const std::string full = cmd + " > \"" + log_path + "\" 2>&1";
  const int raw = std::system(full.c_str());
  if (raw == -1) {
    result.exit_code = -1;
  } else if (WIFEXITED(raw)) {
    result.exit_code = WEXITSTATUS(raw);
  } else if (WIFSIGNALED(raw)) {
    result.exit_code = 128 + WTERMSIG(raw);
  }
  const StatusOr<std::string> text = ReadFileWithRetry(log_path);
  if (text.ok()) result.log = text.value();
  return result;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

// The "epsilon (RDP)    : ..." line the CLI prints, or "" if absent.
std::string EpsilonLine(const std::string& log) {
  for (const std::string& line : SplitLines(log)) {
    if (line.rfind("epsilon (RDP)", 0) == 0) return line;
  }
  return std::string();
}

std::string LastLogLines(const std::string& log, size_t n) {
  const std::vector<std::string> lines = SplitLines(log);
  std::string out;
  const size_t start = lines.size() > n ? lines.size() - n : 0;
  for (size_t i = start; i < lines.size(); ++i) out += "      " + lines[i] + "\n";
  return out;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

// One seeded errno/corruption fault layered on top of the crash. All of
// these are faults training must absorb without changing its trajectory:
// transient errnos are retried, torn checkpoint payloads are rejected at
// resume time by the CRC (falling back to the previous checkpoint), and
// prune failures only leak files.
struct ErrnoFault {
  const char* site;
  const char* action;
};

constexpr std::array<ErrnoFault, 7> kFaultPalette = {{
    {"ckpt.write_io", "eio"},       {"ckpt.write_io", "eintr"},
    {"obs.jsonl", "eio"},           {"obs.jsonl", "eintr"},
    {"ckpt.prune", "eio"},          {"ckpt.write", "short_write"},
    {"ckpt.write_io", "torn_rename"},
}};

struct ScheduleParams {
  int64_t crash_at = 0;       // trainer.step hit that _Exit(87)s
  std::string errno_spec;     // "<site>@p=<prob>:<action>"
  int64_t failpoint_seed = 0; // nonzero seed for the probabilistic arm
  int64_t train_seed = 0;     // experiment seed handed to the CLI
};

ScheduleParams DeriveSchedule(uint64_t root_seed, int64_t index,
                              int64_t iterations) {
  Rng rng = Rng::Substream(root_seed, static_cast<uint64_t>(index) + 1);
  ScheduleParams params;
  params.crash_at =
      1 + static_cast<int64_t>(
              rng.UniformInt(static_cast<uint64_t>(iterations - 1)));
  const ErrnoFault& fault =
      kFaultPalette[rng.UniformInt(kFaultPalette.size())];
  const double probability =
      0.01 * static_cast<double>(1 + rng.UniformInt(3));
  std::array<char, 128> spec;
  std::snprintf(spec.data(), spec.size(), "%s@p=%g:%s", fault.site,
                probability, fault.action);
  params.errno_spec = spec.data();
  params.failpoint_seed =
      static_cast<int64_t>(rng.Next() % 1000000007ull) + 1;
  params.train_seed = index + 1;
  return params;
}

struct ScheduleVerdict {
  int64_t index = 0;
  ScheduleParams params;
  std::vector<std::string> errors;
  bool passed() const { return errors.empty(); }
};

struct HarnessConfig {
  std::string cli;
  std::string workdir;
  int64_t iterations = 0;
  int64_t train_examples = 0;
  bool doctor = false;
};

// Reads a file that must exist and be byte-identical to `expect`.
void CheckFileEquals(const std::string& label, const std::string& path,
                     const std::string& expect,
                     std::vector<std::string>& errors) {
  const StatusOr<std::string> got = ReadFileWithRetry(path);
  if (!got.ok()) {
    errors.push_back(label + ": " + got.status().ToString());
    return;
  }
  if (got.value().empty()) {
    errors.push_back(label + ": " + path + " is empty");
    return;
  }
  if (got.value() != expect) {
    errors.push_back(label + ": " + path +
                     " differs from the reference bytes");
  }
}

// The flight recorder piggybacks a postmortem dump on every successful
// checkpoint (a _Exit(87) kill gets no chance to flush one), so after any
// kill the newest surviving checkpoint — the attempt training resumes
// from — has a postmortem describing exactly that attempt. Validates the
// file is complete JSON with the expected schema markers, its "attempt"
// equals `resume_point`, and its last recorded step milestone does too.
void CheckPostmortem(const std::string& ckpt_dir, int64_t resume_point,
                     std::vector<std::string>& errors) {
  const std::string path = ckpt_dir + "/" + PostmortemFileName(resume_point);
  const StatusOr<std::string> text = ReadFileWithRetry(path);
  if (!text.ok()) {
    errors.push_back("postmortem: " + text.status().ToString() +
                     " — every kill schedule must leave one at the resume "
                     "point");
    return;
  }
  const std::string& body = text.value();
  if (body.size() < 2 || body.front() != '{' ||
      body.compare(body.size() - 2, 2, "}\n") != 0) {
    errors.push_back("postmortem: " + path +
                     " is not a complete JSON object");
    return;
  }
  for (const char* needle :
       {"\"tool\":\"geodp\"", "\"kind\":\"postmortem\"", "\"events\":["}) {
    if (body.find(needle) == std::string::npos) {
      errors.push_back("postmortem: " + path + " lacks " + needle);
    }
  }
  if (body.find("\"attempt\":" + std::to_string(resume_point) + ",") ==
      std::string::npos) {
    errors.push_back("postmortem: " + path + " does not record attempt " +
                     std::to_string(resume_point));
  }
  if (body.find("\"last_milestone_step\":" + std::to_string(resume_point)) ==
      std::string::npos) {
    errors.push_back("postmortem: last recorded step in " + path +
                     " does not match the resume point " +
                     std::to_string(resume_point));
  }
}

ScheduleVerdict RunSchedule(const HarnessConfig& config, uint64_t root_seed,
                            int64_t index) {
  ScheduleVerdict verdict;
  verdict.index = index;
  verdict.params = DeriveSchedule(root_seed, index, config.iterations);
  const ScheduleParams& p = verdict.params;
  std::vector<std::string>& errors = verdict.errors;

  namespace fs = std::filesystem;
  const std::string dir =
      config.workdir + "/s" + std::to_string(index);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) {
    errors.push_back("cannot create " + dir + ": " + ec.message());
    return verdict;
  }

  const std::string common =
      config.cli + " train --iterations=" + std::to_string(config.iterations) +
      " --train-examples=" + std::to_string(config.train_examples) +
      " --seed=" + std::to_string(p.train_seed);
  const std::string ckpt_flags =
      " --geodp_checkpoint_dir=" + dir + "/ckpt --geodp_checkpoint_every=1";

  // 1. Fault-free reference: ground-truth telemetry, weights, epsilon.
  const CmdResult ref = RunCommand(
      common + " --geodp_metrics_out=" + dir + "/ref.jsonl --save=" + dir +
          "/ref.gdpc",
      dir + "/ref.log");
  if (ref.exit_code != 0) {
    errors.push_back("reference run exited " +
                     std::to_string(ref.exit_code) + ":\n" +
                     LastLogLines(ref.log, 5));
    return verdict;  // nothing to compare against
  }

  // 2. Faulted run: crash at step K plus the seeded errno fault.
  const CmdResult faulted = RunCommand(
      common + ckpt_flags + " --geodp_metrics_out=" + dir + "/part1.jsonl" +
          " --geodp_failpoint=trainer.step@" + std::to_string(p.crash_at) +
          ":crash," + p.errno_spec +
          " --geodp_failpoint_seed=" + std::to_string(p.failpoint_seed) +
          " --geodp_max_missed_checkpoints=2",
      dir + "/part1.log");
  if (faulted.exit_code != kCrashExitCode) {
    errors.push_back("faulted run should _Exit(" +
                     std::to_string(kCrashExitCode) + ") at step " +
                     std::to_string(p.crash_at) + ", exited " +
                     std::to_string(faulted.exit_code) + ":\n" +
                     LastLogLines(faulted.log, 5));
  }

  // 3. Resume: restart from the newest good checkpoint and finish. The
  //    --doctor canary extends the run by 3 iterations; the fingerprint
  //    excludes the iteration count so the trainer accepts it, and the
  //    harness MUST then flag the divergence below.
  std::string resume_cmd =
      config.cli + " train --iterations=" +
      std::to_string(config.iterations + (config.doctor ? 3 : 0)) +
      " --train-examples=" + std::to_string(config.train_examples) +
      " --seed=" + std::to_string(p.train_seed) + ckpt_flags +
      " --geodp_resume --geodp_metrics_out=" + dir + "/part2.jsonl" +
      " --save=" + dir + "/resume.gdpc";
  const CmdResult resume = RunCommand(resume_cmd, dir + "/part2.log");
  if (resume.exit_code != 0) {
    errors.push_back("resume run exited " +
                     std::to_string(resume.exit_code) + ":\n" +
                     LastLogLines(resume.log, 5));
    return verdict;
  }

  // Telemetry: faulted is a prefix, resume a suffix, no gap between them.
  const StatusOr<std::string> ref_jsonl =
      ReadFileWithRetry(dir + "/ref.jsonl");
  const StatusOr<std::string> part1_jsonl =
      ReadFileWithRetry(dir + "/part1.jsonl");
  const StatusOr<std::string> part2_jsonl =
      ReadFileWithRetry(dir + "/part2.jsonl");
  if (!ref_jsonl.ok() || !part1_jsonl.ok() || !part2_jsonl.ok()) {
    errors.push_back("missing telemetry file in " + dir);
    return verdict;
  }
  const std::vector<std::string> ref_lines = SplitLines(ref_jsonl.value());
  const std::vector<std::string> part1 = SplitLines(part1_jsonl.value());
  const std::vector<std::string> part2 = SplitLines(part2_jsonl.value());
  if (static_cast<int64_t>(ref_lines.size()) != config.iterations) {
    errors.push_back("reference telemetry has " +
                     std::to_string(ref_lines.size()) + " records, want " +
                     std::to_string(config.iterations));
  }
  if (part1.empty()) {
    errors.push_back("faulted run wrote no telemetry before the crash");
  }
  if (part1.size() > ref_lines.size()) {
    errors.push_back("faulted telemetry longer than the reference");
  } else {
    for (size_t i = 0; i < part1.size(); ++i) {
      if (part1[i] != ref_lines[i]) {
        errors.push_back("faulted telemetry record " + std::to_string(i + 1) +
                         " differs from the reference prefix");
        break;
      }
    }
  }
  if (part2.size() > ref_lines.size()) {
    errors.push_back("resumed telemetry longer than the reference (" +
                     std::to_string(part2.size()) + " vs " +
                     std::to_string(ref_lines.size()) + " records)");
  } else {
    const size_t offset = ref_lines.size() - part2.size();
    for (size_t i = 0; i < part2.size(); ++i) {
      if (part2[i] != ref_lines[offset + i]) {
        errors.push_back("resumed telemetry record " + std::to_string(i + 1) +
                         " differs from the reference suffix");
        break;
      }
    }
    if (part1.size() + part2.size() < ref_lines.size()) {
      errors.push_back(
          "telemetry gap: prefix(" + std::to_string(part1.size()) +
          ") + suffix(" + std::to_string(part2.size()) +
          ") < reference(" + std::to_string(ref_lines.size()) +
          ") — step records were lost across the crash");
    }
  }

  // Postmortem: the kill must have left one describing the attempt the
  // resume restarted from. That attempt is inferred from the resumed
  // suffix length (one telemetry record per attempt); a fresh-start
  // resume (no checkpoint survived) leaves nothing to validate.
  const int64_t resume_point = config.iterations +
                               (config.doctor ? 3 : 0) -
                               static_cast<int64_t>(part2.size());
  if (resume_point >= 1) {
    CheckPostmortem(dir + "/ckpt", resume_point, errors);
  }

  // Weights and epsilon: bit-identical to the uninterrupted run.
  const StatusOr<std::string> ref_weights =
      ReadFileWithRetry(dir + "/ref.gdpc");
  if (!ref_weights.ok()) {
    errors.push_back("reference weights: " +
                     ref_weights.status().ToString());
    return verdict;
  }
  CheckFileEquals("resumed weights", dir + "/resume.gdpc",
                  ref_weights.value(), errors);
  const std::string ref_epsilon = EpsilonLine(ref.log);
  if (ref_epsilon.empty()) {
    errors.push_back("reference run printed no epsilon line");
  } else if (EpsilonLine(resume.log) != ref_epsilon) {
    errors.push_back("epsilon mismatch after resume: \"" + ref_epsilon +
                     "\" vs \"" + EpsilonLine(resume.log) +
                     "\" — privacy budget double-spent or lost");
  }

  // 4. Degraded twin: every telemetry write fails, training must not care.
  const CmdResult degraded = RunCommand(
      common + " --geodp_failpoint=obs.jsonl@p=1:eio" +
          " --geodp_failpoint_seed=" + std::to_string(p.failpoint_seed) +
          " --geodp_metrics_out=" + dir + "/degraded.jsonl --save=" + dir +
          "/degraded.gdpc",
      dir + "/degraded.log");
  if (degraded.exit_code != 0) {
    errors.push_back("degraded twin exited " +
                     std::to_string(degraded.exit_code) +
                     " (telemetry loss must not fail training):\n" +
                     LastLogLines(degraded.log, 5));
  } else {
    if (degraded.log.find("metrics: degraded:") == std::string::npos) {
      errors.push_back("degraded twin printed no \"metrics: degraded:\" "
                       "marker");
    }
    CheckFileEquals("degraded-twin weights", dir + "/degraded.gdpc",
                    ref_weights.value(), errors);
    if (EpsilonLine(degraded.log) != ref_epsilon) {
      errors.push_back("degraded twin epsilon differs from the reference");
    }
  }
  return verdict;
}

int Run(int argc, const char* const* argv) {
  FlagParser flags;
  flags.AddString("cli", "", "path to the geodp_cli binary (required)");
  flags.AddInt("schedules", 10, "number of seeded fault schedules to soak");
  flags.AddInt("seed", 20260809,
               "root seed; every schedule is a deterministic substream of "
               "it (same seed = same faults on every machine)");
  flags.AddInt("iterations", 40, "training iterations per run");
  flags.AddInt("train-examples", 400, "training set size per run");
  flags.AddString("workdir", "chaos_work",
                  "scratch directory (one subdirectory per schedule; "
                  "failing schedules leave their logs behind)");
  flags.AddString("out", "",
                  "also write the machine-readable verdict JSON to this "
                  "path (empty = stdout only)");
  flags.AddBool("doctor", false,
                "canary mode: doctor the resume run with 3 extra "
                "iterations; a healthy harness MUST exit nonzero");
  flags.AddBool("keep", false,
                "keep all per-schedule scratch directories, even passing "
                "ones");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::printf("%s\n%s", parsed.ToString().c_str(),
                flags.HelpText().c_str());
    return 2;
  }
  const HarnessConfig config = {
      flags.GetString("cli"),
      flags.GetString("workdir"),
      flags.GetInt("iterations"),
      flags.GetInt("train-examples"),
      flags.GetBool("doctor"),
  };
  if (config.cli.empty()) {
    std::printf("--cli is required (path to geodp_cli)\n");
    return 2;
  }
  if (config.iterations < 2) {
    std::printf("--iterations must be >= 2 (need a step to crash at)\n");
    return 2;
  }
  const int64_t schedules = flags.GetInt("schedules");
  if (schedules < 1) {
    std::printf("--schedules must be >= 1\n");
    return 2;
  }
  const uint64_t root_seed = static_cast<uint64_t>(flags.GetInt("seed"));

  std::vector<ScheduleVerdict> verdicts;
  int64_t failed = 0;
  for (int64_t i = 0; i < schedules; ++i) {
    ScheduleVerdict verdict = RunSchedule(config, root_seed, i);
    std::printf("schedule %2lld  crash@%-3lld %-28s %s\n",
                static_cast<long long>(i),
                static_cast<long long>(verdict.params.crash_at),
                verdict.params.errno_spec.c_str(),
                verdict.passed() ? "PASS" : "FAIL");
    for (const std::string& error : verdict.errors) {
      std::printf("    - %s\n", error.c_str());
    }
    if (!verdict.passed()) {
      ++failed;
    } else if (!flags.GetBool("keep")) {
      std::error_code ec;
      std::filesystem::remove_all(
          config.workdir + "/s" + std::to_string(i), ec);
    }
    verdicts.push_back(std::move(verdict));
  }

  std::ostringstream json;
  json << "{\"tool\":\"geodp_chaos\",\"seed\":" << root_seed
       << ",\"schedules\":" << schedules << ",\"iterations\":"
       << config.iterations << ",\"doctor\":"
       << (config.doctor ? "true" : "false") << ",\"passed\":"
       << (schedules - failed) << ",\"failed\":" << failed
       << ",\"results\":[";
  for (size_t i = 0; i < verdicts.size(); ++i) {
    const ScheduleVerdict& v = verdicts[i];
    if (i > 0) json << ",";
    json << "{\"schedule\":" << v.index << ",\"crash_at\":"
         << v.params.crash_at << ",\"errno_spec\":\""
         << JsonEscape(v.params.errno_spec) << "\",\"failpoint_seed\":"
         << v.params.failpoint_seed << ",\"status\":\""
         << (v.passed() ? "pass" : "fail") << "\",\"errors\":[";
    for (size_t j = 0; j < v.errors.size(); ++j) {
      if (j > 0) json << ",";
      json << "\"" << JsonEscape(v.errors[j]) << "\"";
    }
    json << "]}";
  }
  json << "]}";
  std::printf("%s\n", json.str().c_str());
  const std::string out_path = flags.GetString("out");
  if (!out_path.empty()) {
    const Status wrote = AtomicWriteFile(out_path, json.str() + "\n");
    if (!wrote.ok()) {
      std::printf("cannot write verdict to %s: %s\n", out_path.c_str(),
                  wrote.ToString().c_str());
      return 2;
    }
  }
  std::printf("chaos: %lld/%lld schedule(s) passed\n",
              static_cast<long long>(schedules - failed),
              static_cast<long long>(schedules));
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace geodp

int main(int argc, char** argv) { return geodp::Run(argc, argv); }
