// Observability HTTP server suite (DESIGN.md §15): real loopback scrapes
// of every endpoint against private registries, /healthz stall detection
// via an injected ManualClock, protocol errors (400/404/405/413) through
// the socketless request surface, lifecycle (ephemeral-port readback,
// double-start, Stop idempotence), concurrent scrapes during recording
// (the TSan target), and the determinism contract: a deterministic JSONL
// export is bit-identical whether or not a server is scraping the
// registry.

#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "core/clock.h"
#include "obs/flight_recorder.h"
#include "obs/heartbeat.h"
#include "obs/http/http_client.h"
#include "obs/http/http_server.h"
#include "obs/http/prometheus.h"
#include "obs/http/series.h"
#include "obs/metrics.h"

namespace icrowd {
namespace {

using obs::HttpGet;
using obs::HttpResponse;
using obs::MetricsHistory;
using obs::MetricsRegistry;
using obs::ObsServer;
using obs::RenderPrometheus;

/// One self-contained observability world: private registries, a stalled
/// or healthy heartbeat set, and a server bound to an ephemeral loopback
/// port.
struct ServerWorld {
  MetricsRegistry metrics;
  obs::HeartbeatRegistry heartbeats;
  obs::FlightRecorder flight;
  MetricsHistory history;
  ManualClock clock{100.0};
  ObsServer server;

  static ObsServer::Options MakeOptions(ServerWorld* world) {
    ObsServer::Options options;
    options.metrics = &world->metrics;
    options.heartbeats = &world->heartbeats;
    options.flight = &world->flight;
    options.history = &world->history;
    return options;
  }

  ServerWorld() : server(MakeOptions(this)) {
    heartbeats.SetClock(&clock);
    obs::MetricOptions nd{false, "probe"};
    metrics.GetCounter("icrowd.host.batches", nd).Increment(3);
    metrics.GetGauge("icrowd.ingest.queue_depth", nd).Set(2.5);
    flight.SetEnabled(true);
    flight.Record(obs::FlightEventKind::kMark, "campaign.start");
  }

  ~ServerWorld() { heartbeats.SetClock(nullptr); }

  HttpResponse Get(const std::string& path) {
    return HttpGet("127.0.0.1", server.port(), path);
  }
};

TEST(ObsServerTest, ServesEveryEndpointOverLoopback) {
  ServerWorld world;
  ASSERT_TRUE(world.server.Start());
  ASSERT_GT(world.server.port(), 0);

  HttpResponse statusz = world.Get("/statusz");
  EXPECT_EQ(statusz.status, 200) << statusz.error;
  EXPECT_NE(statusz.body.find("=== icrowd statusz ==="), std::string::npos);
  EXPECT_NE(statusz.body.find("[build]"), std::string::npos);
  EXPECT_NE(statusz.body.find("icrowd.host.batches 3"), std::string::npos);

  HttpResponse statusz_json = world.Get("/statusz?format=json");
  EXPECT_EQ(statusz_json.status, 200);
  EXPECT_EQ(statusz_json.body.front(), '{');
  EXPECT_NE(statusz_json.body.find("\"build\":"), std::string::npos);

  HttpResponse metricsz = world.Get("/metricsz");
  EXPECT_EQ(metricsz.status, 200);
  EXPECT_NE(metricsz.body.find("# TYPE icrowd_host_batches counter\n"
                               "icrowd_host_batches 3\n"),
            std::string::npos);
  EXPECT_NE(metricsz.body.find("icrowd_ingest_queue_depth 2.5\n"),
            std::string::npos);

  HttpResponse flightz = world.Get("/flightz");
  EXPECT_EQ(flightz.status, 200);
  EXPECT_NE(flightz.body.find("campaign.start"), std::string::npos);

  HttpResponse healthz = world.Get("/healthz");
  EXPECT_EQ(healthz.status, 200);
  EXPECT_EQ(healthz.body, "ok\n");

  world.history.Sample(world.metrics, 1.0);
  world.history.Sample(world.metrics, 2.0);
  HttpResponse seriesz = world.Get("/seriesz");
  EXPECT_EQ(seriesz.status, 200);
  EXPECT_NE(seriesz.body.find("\"snapshots\":2"), std::string::npos);
  EXPECT_NE(seriesz.body.find("\"rates\":{"), std::string::npos);

  HttpResponse buildz = world.Get("/buildz");
  EXPECT_EQ(buildz.status, 200);
  EXPECT_NE(buildz.body.find("git_sha "), std::string::npos);
  EXPECT_NE(buildz.body.find("api_version "), std::string::npos);

  EXPECT_EQ(world.Get("/nope").status, 404);
  EXPECT_GE(world.server.requests_served(), 8u);
  world.server.Stop();
}

TEST(ObsServerTest, HealthzReports503OnStalledHeartbeat) {
  ServerWorld world;
  ASSERT_TRUE(world.server.Start());

  // Busy heartbeat whose stamp stops advancing past the stall threshold:
  // exactly the condition the watchdog calls a stall.
  obs::Heartbeat* consumer = world.heartbeats.Register("host.shard");
  consumer->MarkBusy();
  world.clock.Advance(30.0);  // default healthz_stall_seconds is 5

  HttpResponse healthz = world.Get("/healthz");
  EXPECT_EQ(healthz.status, 503);
  EXPECT_NE(healthz.body.find("stalled: host.shard"),
            std::string::npos);
  EXPECT_NE(healthz.body.find("age_seconds=30.000000"), std::string::npos);

  // Idle-but-old is healthy: parked on a condition variable is not a
  // stall (the heartbeat contract, DESIGN.md §14).
  consumer->MarkIdle();
  world.clock.Advance(100.0);
  EXPECT_EQ(world.Get("/healthz").status, 200);

  world.heartbeats.Unregister(consumer);
  world.server.Stop();
}

TEST(ObsServerTest, ProtocolErrorsWithoutASocket) {
  ServerWorld world;  // never started: HandleRequestForTesting is direct

  std::string ok = world.server.HandleRequestForTesting(
      "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(ok.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(ok.find("Content-Length: 3"), std::string::npos);

  EXPECT_NE(world.server.HandleRequestForTesting("garbage")
                .find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(world.server.HandleRequestForTesting("GETnothing\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(world.server.HandleRequestForTesting(
                    "GET relative HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
  std::string post = world.server.HandleRequestForTesting(
      "POST /statusz HTTP/1.1\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos);
  EXPECT_NE(post.find("Allow: GET"), std::string::npos);
  EXPECT_NE(world.server.HandleRequestForTesting("GET /nope HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 404"),
            std::string::npos);
  std::string big = "GET /statusz HTTP/1.1\r\nX: ";
  big.append(8192, 'a');
  big += "\r\n\r\n";
  EXPECT_NE(world.server.HandleRequestForTesting(big).find("HTTP/1.1 413"),
            std::string::npos);
}

TEST(ObsServerTest, LifecycleIsIdempotentAndReadsBackPort) {
  ServerWorld world;
  EXPECT_EQ(world.server.port(), -1);
  EXPECT_FALSE(world.server.running());
  world.server.Stop();  // never started: no-op

  ASSERT_TRUE(world.server.Start());
  EXPECT_TRUE(world.server.running());
  int port = world.server.port();
  EXPECT_GT(port, 0);
  EXPECT_FALSE(world.server.Start()) << "double start must refuse";
  EXPECT_EQ(world.server.port(), port);

  world.server.Stop();
  EXPECT_FALSE(world.server.running());
  EXPECT_EQ(world.server.port(), -1);
  world.server.Stop();  // idempotent
}

TEST(ObsServerTest, FixedPortIsServedAndConflictFailsCleanly) {
  ServerWorld world;
  ASSERT_TRUE(world.server.Start());
  // Second server on the same fixed port: bind fails, Start reports it.
  ObsServer::Options options;
  options.port = world.server.port();
  ObsServer second(std::move(options));
  EXPECT_FALSE(second.Start());
  EXPECT_FALSE(second.running());
  world.server.Stop();
}

TEST(ObsServerTest, ConcurrentScrapesDuringRecording) {
  ServerWorld world;
  ASSERT_TRUE(world.server.Start());
  obs::Counter events =
      world.metrics.GetCounter("icrowd.ingest.events_applied");
  const obs::Histogram lat = world.metrics.GetHistogram(
      "icrowd.ingest.apply_seconds", obs::ExponentialBuckets(1e-6, 4, 8));

  // Writers hammer the registry and the history while scrapers pull every
  // endpoint — the schedule TSan checks for races between the exporter
  // snapshot path, the series ring, and the lock-free recording shards.
  std::thread writer([&] {
    for (int i = 0; i < 2000; ++i) {
      events.Increment();
      lat.Observe(1e-5);
    }
  });
  std::thread sampler([&] {
    for (int i = 0; i < 50; ++i) {
      world.history.Sample(world.metrics, static_cast<double>(i));
    }
  });
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([&world, t] {
      const char* paths[] = {"/metricsz", "/seriesz", "/statusz"};
      for (int i = 0; i < 10; ++i) {
        HttpResponse r = world.Get(paths[(t + i) % 3]);
        EXPECT_EQ(r.status, 200) << r.error;
      }
    });
  }
  writer.join();
  sampler.join();
  for (std::thread& s : scrapers) s.join();

  HttpResponse final_scrape = world.Get("/metricsz");
  EXPECT_NE(final_scrape.body.find("icrowd_ingest_events_applied 2000\n"),
            std::string::npos);
  world.server.Stop();
}

TEST(ObsServerTest, DeterministicExportUnaffectedByScraping) {
  MetricsRegistry metrics;
  metrics.GetCounter("icrowd.core.arrivals", {true, "det"}).Increment(42);
  metrics
      .GetHistogram("icrowd.assign.quality",
                    obs::LinearBuckets(0.1, 0.1, 9), {true, "det"})
      .Observe(0.55);
  obs::ExportOptions det;
  det.deterministic = true;
  const std::string before = metrics.ExportJsonlString(det);

  ObsServer::Options options;
  options.metrics = &metrics;
  ObsServer server(std::move(options));
  ASSERT_TRUE(server.Start());
  for (int i = 0; i < 5; ++i) {
    HttpResponse r = HttpGet("127.0.0.1", server.port(), "/metricsz");
    EXPECT_EQ(r.status, 200);
  }
  // The scrape renders from a snapshot and never writes back: the
  // deterministic dump must be bit-identical with the server attached
  // and actively scraped.
  EXPECT_EQ(metrics.ExportJsonlString(det), before);
  server.Stop();

  // And the Prometheus rendering of the same registry state is itself
  // byte-stable scrape over scrape.
  EXPECT_EQ(RenderPrometheus(metrics), RenderPrometheus(metrics));
}

TEST(ObsServerTest, SeriesSamplerFeedsHistoryInRealTime) {
  MetricsRegistry metrics;
  metrics.GetCounter("ticks").Increment(5);
  MetricsHistory history(16);
  obs::SeriesSamplerOptions options;
  options.period_seconds = 0.005;
  options.registry = &metrics;
  obs::SeriesSampler sampler(&history, options);
  while (sampler.samples_taken() < 3) {
    std::this_thread::yield();
  }
  sampler.Stop();
  sampler.Stop();  // idempotent
  EXPECT_GE(history.size(), 3u);
  EXPECT_NE(history.RenderJson().find("\"ticks\":"), std::string::npos);
}

TEST(ObsServerTest, NullHistoryServesEmptySeriesDocument) {
  MetricsRegistry metrics;
  ObsServer::Options options;
  options.metrics = &metrics;
  ObsServer server(std::move(options));
  ASSERT_TRUE(server.Start());
  HttpResponse r = HttpGet("127.0.0.1", server.port(), "/seriesz");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "{\"capacity\":0,\"snapshots\":0,\"windows\":[]}\n");
  server.Stop();
}

}  // namespace
}  // namespace icrowd
