// Tests for the live introspection server: exposition golden text (exact
// bytes, no networking), request routing, the budget/stall watchdogs, the
// socket layer (malformed and oversize requests), concurrent scrapes
// during a real training run (exercised under TSan in CI), and the
// 1-vs-8-thread byte-identity of /metrics at a fixed step.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "base/byte_view.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "base/timer.h"
#include "data/synthetic_images.h"
#include "models/logistic_regression.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "obs/phase_profiler.h"
#include "optim/trainer.h"

namespace geodp {
namespace {

// Sends `raw` to the server and returns the full response (read to EOF).
std::string RawRequest(int port, const std::string& raw) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in address;
  std::memset(&address, 0, sizeof(address));
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  if (::connect(fd, geodp::PunCast<const sockaddr>(&address),
                sizeof(address)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < raw.size()) {
    const ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string HttpGet(int port, const std::string& target) {
  return RawRequest(port, "GET " + target +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Connection: close\r\n\r\n");
}

std::string ResponseBody(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

TEST(PrometheusNameTest, PrefixesAndSanitizes) {
  EXPECT_EQ(PrometheusMetricName("trainer.steps"), "geodp_trainer_steps");
  EXPECT_EQ(PrometheusMetricName("obs.jsonl-errors"),
            "geodp_obs_jsonl_errors");
  EXPECT_EQ(PrometheusMetricName("plain"), "geodp_plain");
}

TEST(PrometheusTextTest, GoldenBytes) {
  MetricsRegistry registry;
  registry.IncrementCounter("trainer.steps", 3);
  registry.SetGauge("trainer.epsilon", 0.5);
  registry.ObserveHistogram("trainer.clip_fraction", {0.5, 1.0}, 0.25);
  registry.ObserveHistogram("trainer.clip_fraction", {0.5, 1.0}, 0.75);
  EXPECT_EQ(
      PrometheusText(registry.Snapshot()),
      "# HELP geodp_trainer_steps_total trainer.steps\n"
      "# TYPE geodp_trainer_steps_total counter\n"
      "geodp_trainer_steps_total 3\n"
      "# HELP geodp_trainer_epsilon trainer.epsilon\n"
      "# TYPE geodp_trainer_epsilon gauge\n"
      "geodp_trainer_epsilon 0.5\n"
      "# HELP geodp_trainer_clip_fraction trainer.clip_fraction\n"
      "# TYPE geodp_trainer_clip_fraction histogram\n"
      "geodp_trainer_clip_fraction_bucket{le=\"0.5\"} 1\n"
      "geodp_trainer_clip_fraction_bucket{le=\"1\"} 2\n"
      "geodp_trainer_clip_fraction_bucket{le=\"+Inf\"} 2\n"
      "geodp_trainer_clip_fraction_sum 1\n"
      "geodp_trainer_clip_fraction_count 2\n"
      "# HELP geodp_trainer_clip_fraction_p50 p50 of trainer.clip_fraction\n"
      "# TYPE geodp_trainer_clip_fraction_p50 gauge\n"
      "geodp_trainer_clip_fraction_p50 0.5\n"
      "# HELP geodp_trainer_clip_fraction_p95 p95 of trainer.clip_fraction\n"
      "# TYPE geodp_trainer_clip_fraction_p95 gauge\n"
      "geodp_trainer_clip_fraction_p95 0.95\n"
      "# HELP geodp_trainer_clip_fraction_p99 p99 of trainer.clip_fraction\n"
      "# TYPE geodp_trainer_clip_fraction_p99 gauge\n"
      "geodp_trainer_clip_fraction_p99 0.99\n");
}

TEST(PrometheusTextTest, EmptyRegistryIsEmptyText) {
  MetricsRegistry registry;
  EXPECT_EQ(PrometheusText(registry.Snapshot()), "");
}

TEST(StatusPublisherTest, LatestIsNullBeforeFirstPublishAndSequences) {
  TrainingStatusPublisher publisher;
  EXPECT_EQ(publisher.Latest(), nullptr);
  EXPECT_EQ(publisher.publish_count(), 0);

  TrainingStatusSnapshot snapshot;
  snapshot.run_state = "training";
  snapshot.step = 1;
  publisher.Publish(snapshot);
  snapshot.step = 2;
  publisher.Publish(snapshot);

  const auto latest = publisher.Latest();
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->step, 2);
  EXPECT_EQ(latest->publish_sequence, 2);
  EXPECT_EQ(publisher.publish_count(), 2);
  // A reader holding an old snapshot keeps it alive across publishes.
  snapshot.step = 3;
  publisher.Publish(snapshot);
  EXPECT_EQ(latest->step, 2);
}

TEST(StatuszTest, JsonGoldenBytes) {
  TrainingStatusSnapshot s;
  s.run_state = "training";
  s.options_fingerprint = "v1|seed=1";
  s.step = 5;
  s.attempt = 6;
  s.iterations = 10;
  s.epsilon_spent = 0.5;
  s.epsilon_budget = 2.0;
  s.delta = 1e-5;
  s.checkpoint_dir = "/tmp/ckpt";
  s.latest_checkpoint = "/tmp/ckpt/ckpt_000006.geockpt";
  s.publish_sequence = 7;
  s.publish_micros = 123;
  EXPECT_EQ(StatuszJson(s),
            "{\"run_state\":\"training\",\"options_fingerprint\":\"v1|seed=1\","
            "\"step\":5,\"attempt\":6,\"iterations\":10,\"last_record\":null,"
            "\"epsilon_spent\":0.5,\"epsilon_budget\":2,\"delta\":1e-05,"
            "\"degraded\":false,\"eps_burn_rate\":0,"
            "\"eps_steps_to_exhaustion\":-1,"
            "\"checkpoint_dir\":\"/tmp/ckpt\","
            "\"latest_checkpoint\":"
            "\"/tmp/ckpt/ckpt_000006.geockpt\",\"publish_sequence\":7,"
            "\"publish_micros\":123}");
  const std::string html = StatuszHtml(s);
  EXPECT_NE(html.find("<title>geodp /statusz</title>"), std::string::npos);
  EXPECT_NE(html.find("v1|seed=1"), std::string::npos);
  EXPECT_NE(html.find("<tr><td>degraded</td><td>false</td></tr>"),
            std::string::npos);

  s.degraded = true;
  EXPECT_NE(StatuszJson(s).find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(StatuszHtml(s).find("<tr><td>degraded</td><td>true</td></tr>"),
            std::string::npos);
}

TEST(StatuszTest, LastRecordEmbedsStepRecordJson) {
  TrainingStatusSnapshot s;
  s.run_state = "finished";
  s.has_last_record = true;
  s.last_record.step = 9;
  s.last_record.epsilon = 0.25;
  const std::string json = StatuszJson(s);
  EXPECT_NE(json.find("\"last_record\":{\"step\":9,"), std::string::npos);
  EXPECT_NE(json.find(StepRecordToJson(s.last_record)), std::string::npos);
}

TEST(VarzTest, NullStatusAndMetricsSections) {
  MetricsRegistry registry;
  registry.IncrementCounter("c", 2);
  registry.SetGauge("g", 1.5);
  const std::string json = VarzJson(registry.Snapshot(), nullptr);
  EXPECT_EQ(json,
            "{\"metrics\":{\"counters\":{\"c\":2},\"gauges\":{\"g\":1.5},"
            "\"histograms\":{}},\"status\":null}");
}

TEST(RouteTest, MethodAndPathHandling) {
  MetricsRegistry registry;
  const IntrospectionServerOptions options;
  EXPECT_EQ(RouteIntrospectionRequest("POST", "/metrics", &registry, nullptr,
                                      options)
                .status,
            405);
  EXPECT_EQ(RouteIntrospectionRequest("GET", "/nope", &registry, nullptr,
                                      options)
                .status,
            404);
  const IntrospectionResponse index =
      RouteIntrospectionRequest("GET", "/", &registry, nullptr, options);
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("/metrics"), std::string::npos);
  const IntrospectionResponse metrics = RouteIntrospectionRequest(
      "GET", "/metrics", &registry, nullptr, options);
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, "text/plain; version=0.0.4; charset=utf-8");
  // Null registry and publisher must not crash any endpoint.
  for (const char* target :
       {"/metrics", "/healthz", "/readyz", "/statusz", "/varz"}) {
    RouteIntrospectionRequest("GET", target, nullptr, nullptr, options);
  }
}

TEST(RouteTest, HealthzFlipsOnExceededBudgetOnly) {
  const IntrospectionServerOptions options;
  TrainingStatusPublisher publisher;
  // Liveness holds before any snapshot; readiness does not.
  EXPECT_EQ(RouteIntrospectionRequest("GET", "/healthz", nullptr, &publisher,
                                      options)
                .status,
            200);
  EXPECT_EQ(RouteIntrospectionRequest("GET", "/readyz", nullptr, &publisher,
                                      options)
                .status,
            503);

  TrainingStatusSnapshot snapshot;
  snapshot.run_state = "training";
  snapshot.epsilon_spent = 1.0;
  snapshot.epsilon_budget = 2.0;
  publisher.Publish(snapshot);
  EXPECT_EQ(RouteIntrospectionRequest("GET", "/healthz", nullptr, &publisher,
                                      options)
                .status,
            200);
  EXPECT_EQ(RouteIntrospectionRequest("GET", "/readyz", nullptr, &publisher,
                                      options)
                .status,
            200);

  snapshot.epsilon_spent = 2.5;  // over budget
  publisher.Publish(snapshot);
  const IntrospectionResponse health = RouteIntrospectionRequest(
      "GET", "/healthz", nullptr, &publisher, options);
  EXPECT_EQ(health.status, 503);
  EXPECT_NE(health.body.find("privacy budget exceeded"), std::string::npos);
  EXPECT_EQ(RouteIntrospectionRequest("GET", "/readyz", nullptr, &publisher,
                                      options)
                .status,
            503);

  snapshot.epsilon_budget = 0.0;  // unbounded: watchdog off
  publisher.Publish(snapshot);
  EXPECT_EQ(RouteIntrospectionRequest("GET", "/healthz", nullptr, &publisher,
                                      options)
                .status,
            200);
}

TEST(RouteTest, HealthzWarnsWithinTheBurnRateHorizon) {
  IntrospectionServerOptions options;
  options.epsilon_warn_steps = 100;
  TrainingStatusPublisher publisher;
  TrainingStatusSnapshot snapshot;
  snapshot.run_state = "training";
  snapshot.epsilon_spent = 1.0;
  snapshot.epsilon_budget = 2.0;
  snapshot.eps_burn_rate = 0.004;

  // Projected exhaustion beyond the horizon: plain ok.
  snapshot.eps_steps_to_exhaustion = 250.0;
  publisher.Publish(snapshot);
  IntrospectionResponse health = RouteIntrospectionRequest(
      "GET", "/healthz", nullptr, &publisher, options);
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  // Inside the horizon: still 200 (the run is healthy) but the body
  // carries the early warning monitors alert on before the 503 flip.
  snapshot.eps_steps_to_exhaustion = 80.0;
  publisher.Publish(snapshot);
  health = RouteIntrospectionRequest("GET", "/healthz", nullptr, &publisher,
                                     options);
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body,
            "warn: epsilon budget exhausted in ~80 steps at the current "
            "burn rate\n");

  // Unknown trend (-1) or a disabled horizon never warns.
  snapshot.eps_steps_to_exhaustion = -1.0;
  publisher.Publish(snapshot);
  EXPECT_EQ(RouteIntrospectionRequest("GET", "/healthz", nullptr, &publisher,
                                      options)
                .body,
            "ok\n");
  options.epsilon_warn_steps = 0;
  snapshot.eps_steps_to_exhaustion = 80.0;
  publisher.Publish(snapshot);
  EXPECT_EQ(RouteIntrospectionRequest("GET", "/healthz", nullptr, &publisher,
                                      options)
                .body,
            "ok\n");
}

TEST(RouteTest, ProfilezServesHtmlJsonAndFoldedText) {
  const IntrospectionServerOptions options;
  DisableProfiling();
  ResetProfile();
  const IntrospectionResponse html = RouteIntrospectionRequest(
      "GET", "/profilez", nullptr, nullptr, options);
  EXPECT_EQ(html.status, 200);
  EXPECT_EQ(html.content_type, "text/html; charset=utf-8");
  EXPECT_NE(html.body.find("<title>geodp /profilez</title>"),
            std::string::npos);
  const IntrospectionResponse json = RouteIntrospectionRequest(
      "GET", "/profilez?format=json", nullptr, nullptr, options);
  EXPECT_EQ(json.status, 200);
  EXPECT_EQ(json.content_type, "application/json");
  EXPECT_EQ(json.body, "{\"enabled\":false,\"threads\":0,\"phases\":[]}");
  const IntrospectionResponse folded = RouteIntrospectionRequest(
      "GET", "/profilez?format=folded", nullptr, nullptr, options);
  EXPECT_EQ(folded.status, 200);
  EXPECT_EQ(folded.body, "");
}

TEST(RouteTest, FlightzServesTheGlobalRecorder) {
  const IntrospectionServerOptions options;
  FlightRecorder::Global().Reset();
  FlightRecorder::Global().Record(FlightEventKind::kNote, 7, "route test");
  const IntrospectionResponse flight = RouteIntrospectionRequest(
      "GET", "/flightz", nullptr, nullptr, options);
  EXPECT_EQ(flight.status, 200);
  EXPECT_EQ(flight.content_type, "application/json");
  EXPECT_EQ(flight.body.find("{\"enabled\":true,\"total_recorded\":1,"), 0u);
  EXPECT_NE(flight.body.find("\"kind\":\"note\",\"step\":7"),
            std::string::npos);
  EXPECT_NE(flight.body.find("\"detail\":\"route test\""),
            std::string::npos);
  FlightRecorder::Global().Reset();

  const IntrospectionResponse index =
      RouteIntrospectionRequest("GET", "/", nullptr, nullptr, options);
  EXPECT_NE(index.body.find("/profilez"), std::string::npos);
  EXPECT_NE(index.body.find("/flightz"), std::string::npos);
}

TEST(RouteTest, DegradedRunStaysHealthyWithMarkerBody) {
  // Telemetry loss must not get the run killed by an orchestrator: the
  // epsilon already spent is unrecoverable. /healthz stays 200 but the
  // body carries the "degraded" marker monitors alert on.
  const IntrospectionServerOptions options;
  TrainingStatusPublisher publisher;
  TrainingStatusSnapshot snapshot;
  snapshot.run_state = "training";
  snapshot.degraded = true;
  publisher.Publish(snapshot);
  const IntrospectionResponse health = RouteIntrospectionRequest(
      "GET", "/healthz", nullptr, &publisher, options);
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "degraded\n");
}

TEST(PrometheusTextTest, ResilienceCountersGoldenBytes) {
  // The counters the trainer mirrors from the I/O substrate and the
  // checkpoint miss/prune paths, in Prometheus exposition form.
  MetricsRegistry registry;
  registry.IncrementCounter("io.retries", 4);
  registry.IncrementCounter("io.giveups", 1);
  registry.IncrementCounter("ckpt.missed", 2);
  registry.IncrementCounter("ckpt.prune_errors", 1);
  EXPECT_EQ(PrometheusText(registry.Snapshot()),
            "# HELP geodp_ckpt_missed_total ckpt.missed\n"
            "# TYPE geodp_ckpt_missed_total counter\n"
            "geodp_ckpt_missed_total 2\n"
            "# HELP geodp_ckpt_prune_errors_total ckpt.prune_errors\n"
            "# TYPE geodp_ckpt_prune_errors_total counter\n"
            "geodp_ckpt_prune_errors_total 1\n"
            "# HELP geodp_io_giveups_total io.giveups\n"
            "# TYPE geodp_io_giveups_total counter\n"
            "geodp_io_giveups_total 1\n"
            "# HELP geodp_io_retries_total io.retries\n"
            "# TYPE geodp_io_retries_total counter\n"
            "geodp_io_retries_total 4\n");
}

TEST(RouteTest, ReadyzStallWatchdog) {
  IntrospectionServerOptions options;
  options.stall_timeout_ms = 1;
  TrainingStatusPublisher publisher;
  TrainingStatusSnapshot snapshot;
  snapshot.run_state = "training";
  publisher.Publish(snapshot);
  // Burn process time until the snapshot is definitely older than the
  // stall timeout (ProcessMicros is CPU time, so this is deterministic).
  const int64_t start = Timer::ProcessMicros();
  while (Timer::ProcessMicros() - start < 5000) {
  }
  EXPECT_EQ(RouteIntrospectionRequest("GET", "/readyz", nullptr, &publisher,
                                      options)
                .status,
            503);
  // A finished run is never "stalled"; /healthz ignores staleness.
  EXPECT_EQ(RouteIntrospectionRequest("GET", "/healthz", nullptr, &publisher,
                                      options)
                .status,
            200);
  snapshot.run_state = "finished";
  publisher.Publish(snapshot);
  EXPECT_EQ(RouteIntrospectionRequest("GET", "/readyz", nullptr, &publisher,
                                      options)
                .status,
            200);
}

TEST(RouteTest, StatuszFormatsJsonAndHtml) {
  const IntrospectionServerOptions options;
  TrainingStatusPublisher publisher;
  EXPECT_EQ(RouteIntrospectionRequest("GET", "/statusz", nullptr, &publisher,
                                      options)
                .status,
            503);
  TrainingStatusSnapshot snapshot;
  snapshot.run_state = "training";
  publisher.Publish(snapshot);
  const IntrospectionResponse html = RouteIntrospectionRequest(
      "GET", "/statusz", nullptr, &publisher, options);
  EXPECT_EQ(html.status, 200);
  EXPECT_EQ(html.content_type, "text/html; charset=utf-8");
  const IntrospectionResponse json = RouteIntrospectionRequest(
      "GET", "/statusz?format=json", nullptr, &publisher, options);
  EXPECT_EQ(json.status, 200);
  EXPECT_EQ(json.content_type, "application/json");
  EXPECT_EQ(json.body, StatuszJson(*publisher.Latest()));
}

TEST(SerializeTest, WireFormat) {
  IntrospectionResponse response;
  response.status = 200;
  response.content_type = "text/plain; charset=utf-8";
  response.body = "hi\n";
  EXPECT_EQ(SerializeHttpResponse(response),
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/plain; charset=utf-8\r\n"
            "Content-Length: 3\r\n"
            "Connection: close\r\n\r\nhi\n");
}

TEST(ServerTest, ServesMetricsOverSocket) {
  MetricsRegistry registry;
  registry.IncrementCounter("requests", 2);
  IntrospectionServer server(&registry, nullptr,
                             IntrospectionServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);
  const std::string response = HttpGet(server.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(ResponseBody(response), PrometheusText(registry.Snapshot()));
  EXPECT_GE(server.requests_served(), 1);
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

TEST(ServerTest, RejectsMalformedAndOversizeRequests) {
  MetricsRegistry registry;
  IntrospectionServerOptions options;
  options.max_request_bytes = 512;
  IntrospectionServer server(&registry, nullptr, options);
  ASSERT_TRUE(server.Start().ok());

  EXPECT_NE(RawRequest(server.port(), "garbage\r\n\r\n")
                .find("HTTP/1.1 400 Bad Request"),
            std::string::npos);
  EXPECT_NE(RawRequest(server.port(), "GET /metrics\r\n\r\n")
                .find("HTTP/1.1 400 Bad Request"),
            std::string::npos);
  EXPECT_NE(RawRequest(server.port(),
                       "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);
  const std::string oversize =
      "GET /metrics HTTP/1.1\r\nX-Pad: " + std::string(1024, 'a') +
      "\r\n\r\n";
  EXPECT_NE(RawRequest(server.port(), oversize).find("HTTP/1.1 431"),
            std::string::npos);
  // The server survives all of the above and still serves.
  EXPECT_NE(HttpGet(server.port(), "/healthz").find("HTTP/1.1 200"),
            std::string::npos);
}

TEST(ServerTest, EphemeralPortsAreIndependent) {
  MetricsRegistry registry;
  IntrospectionServer a(&registry, nullptr, IntrospectionServerOptions{});
  IntrospectionServer b(&registry, nullptr, IntrospectionServerOptions{});
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  EXPECT_NE(a.port(), b.port());
}

InMemoryDataset SmallDataset(uint64_t seed) {
  SyntheticImageOptions data_options;
  data_options.num_examples = 96;
  data_options.height = 8;
  data_options.width = 8;
  data_options.seed = seed;
  return MakeSyntheticImages(data_options);
}

TrainerOptions SmallTrainerOptions() {
  TrainerOptions options;
  options.method = PerturbationMethod::kGeoDp;
  options.beta = 0.05;
  options.batch_size = 16;
  options.iterations = 8;
  options.learning_rate = 0.5;
  options.noise_multiplier = 1.0;
  options.seed = 43;
  return options;
}

// Live scrape while training runs: clients hammer every endpoint from
// other threads while the trainer publishes. TSan (CI) verifies the
// publisher/registry synchronization; the assertions here pin behavior.
TEST(ServerTest, ConcurrentScrapesDuringTraining) {
  MetricsRegistry::Global().Reset();
  const InMemoryDataset train = SmallDataset(41);
  TrainingStatusPublisher publisher;
  IntrospectionServer server(&MetricsRegistry::Global(), &publisher,
                             IntrospectionServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> done{false};
  std::atomic<int64_t> scrapes{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 2; ++i) {
    clients.emplace_back([&server, &done, &scrapes] {
      const char* targets[] = {"/metrics", "/readyz", "/statusz?format=json",
                               "/varz"};
      int cursor = 0;
      while (!done.load(std::memory_order_acquire)) {
        const std::string response =
            HttpGet(server.port(), targets[cursor % 4]);
        if (!response.empty()) scrapes.fetch_add(1);
        ++cursor;
      }
    });
  }

  Rng rng(42);
  auto model = MakeLogisticRegression(64, 10, rng);
  TrainerOptions options = SmallTrainerOptions();
  options.status_publisher = &publisher;
  DpTrainer trainer(model.get(), &train, nullptr, options);
  const StatusOr<TrainingResult> result = trainer.Run();
  // Under machine load the short run can outpace the clients; keep the
  // server up until at least one scrape has landed so the count below is
  // deterministic, not a race against the trainer.
  while (scrapes.load(std::memory_order_acquire) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& client : clients) client.join();
  server.Stop();

  ASSERT_TRUE(result.ok());
  EXPECT_GT(scrapes.load(), 0);
  const auto latest = publisher.Latest();
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->run_state, "finished");
  EXPECT_EQ(latest->step, 8);
  EXPECT_DOUBLE_EQ(latest->epsilon_spent, result.value().epsilon);
  MetricsRegistry::Global().Reset();
}

// The introspection channel must not perturb training: the same run with
// and without a publisher produces bit-identical telemetry.
TEST(ServerTest, PublisherDoesNotChangeTelemetry) {
  const InMemoryDataset train = SmallDataset(41);
  auto run = [&](bool with_publisher) {
    Rng rng(42);
    auto model = MakeLogisticRegression(64, 10, rng);
    TrainerOptions options = SmallTrainerOptions();
    CollectingStepObserver observer;
    options.step_observer = &observer;
    TrainingStatusPublisher publisher;
    if (with_publisher) options.status_publisher = &publisher;
    DpTrainer trainer(model.get(), &train, nullptr, options);
    trainer.Run().value();
    std::string serialized;
    for (const StepRecord& record : observer.records()) {
      serialized += StepRecordToJson(record) + "\n";
    }
    return serialized;
  };
  const std::string without = run(false);
  const std::string with = run(true);
  EXPECT_FALSE(without.empty());
  EXPECT_EQ(without, with);
}

// /metrics at a fixed step is byte-identical whether the run used 1 or 8
// threads: values are bit-identical by the ParallelFor contract and the
// exposition is a pure function of them.
TEST(ServerTest, MetricsBytesIdenticalAcrossThreadCounts) {
  const InMemoryDataset train = SmallDataset(41);
  auto run = [&](int threads) {
    MetricsRegistry::Global().Reset();
    SetGlobalThreadCount(threads);
    Rng rng(42);
    auto model = MakeLogisticRegression(64, 10, rng);
    TrainerOptions options = SmallTrainerOptions();
    TrainingStatusPublisher publisher;
    options.status_publisher = &publisher;
    DpTrainer trainer(model.get(), &train, nullptr, options);
    trainer.Run().value();
    SetGlobalThreadCount(0);
    const IntrospectionResponse response = RouteIntrospectionRequest(
        "GET", "/metrics", &MetricsRegistry::Global(), &publisher,
        IntrospectionServerOptions{});
    MetricsRegistry::Global().Reset();
    return response.body;
  };
  const std::string serial = run(1);
  const std::string parallel = run(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_NE(serial.find("geodp_trainer_steps_total 8\n"), std::string::npos);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace geodp
