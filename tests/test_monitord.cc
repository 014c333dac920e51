// Fleet-monitoring daemon (src/monitord + common/session_registry):
// Prometheus exposition format down to exact bytes, the exporter round-trip
// property over every registered obs name, session registry publish /
// discover / GC semantics, Monitord attach-detach lifecycle against real
// Recorder sessions, the local HTTP server, and scrape-loop memory
// boundedness.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <malloc.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common/fileutil.h"
#include "common/session_registry.h"
#include "core/log_format.h"
#include "core/recorder.h"
#include "monitord/http.h"
#include "monitord/monitor.h"
#include "monitord/prom.h"
#include "obs/metric_names.h"
#include "obs/session.h"

#if defined(__SANITIZE_ADDRESS__)
// Exported by the ASan runtime; GCC ships no header that declares it.
extern "C" size_t __sanitizer_get_current_allocated_bytes();
#endif

using namespace teeperf;
using namespace teeperf::monitord;

namespace {

std::unique_ptr<obs::SelfTelemetry> anon_obs() {
  auto t = obs::SelfTelemetry::create(obs::TelemetryOptions{});
  EXPECT_NE(t, nullptr);
  return t;
}

// A pid that is certainly dead: fork a child that exits immediately and
// reap it. (Pid recycling within one test is not a realistic hazard.)
u64 dead_pid() {
  pid_t child = fork();
  if (child == 0) _exit(0);
  EXPECT_GT(child, 0);
  int status = 0;
  EXPECT_EQ(waitpid(child, &status, 0), child);
  return static_cast<u64>(child);
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  usize start = 0;
  while (start < text.size()) {
    usize nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    out.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return out;
}

// Bytes the allocator holds for live allocations. Not RSS: under ASan,
// freed blocks sit in a quarantine that keeps resident memory growing with
// no leak at all.
u64 live_heap_bytes() {
#if defined(__SANITIZE_ADDRESS__)
  return static_cast<u64>(__sanitizer_get_current_allocated_bytes());
#else
  struct mallinfo2 mi = mallinfo2();
  return static_cast<u64>(mi.uordblks) + static_cast<u64>(mi.hblkhd);
#endif
}

}  // namespace

// ---------------------------------------------------------------------------
// PromWriter: exact exposition bytes.

TEST(PromWriter, GoldenExactFormat) {
  PromWriter w;
  // Label values exercising every escape: backslash, quote, newline.
  w.family("log.dropped", obs::MetricType::kCounter,
           {{"session", "s\"1"}, {"pid", "7"}}, 3);
  w.family("log.dropped", obs::MetricType::kCounter,
           {{"session", "s2\\x\n"}, {"pid", "8"}}, 0);
  w.family("log.active", obs::MetricType::kGauge, {}, 1);

  const std::string expected =
      "# HELP teeperf_log_active obs metric log.active\n"
      "# TYPE teeperf_log_active gauge\n"
      "teeperf_log_active 1\n"
      "# HELP teeperf_log_dropped obs metric log.dropped\n"
      "# TYPE teeperf_log_dropped counter\n"
      "teeperf_log_dropped{session=\"s\\\"1\",pid=\"7\"} 3\n"
      "teeperf_log_dropped{session=\"s2\\\\x\\n\",pid=\"8\"} 0\n";
  EXPECT_EQ(w.render(), expected);
}

TEST(PromWriter, SanitizeAndEscape) {
  EXPECT_EQ(PromWriter::sanitize_name("log.tail"), "teeperf_log_tail");
  EXPECT_EQ(PromWriter::sanitize_name("monitord.scrape.latency_us"),
            "teeperf_monitord_scrape_latency_us");
  EXPECT_EQ(PromWriter::escape_label_value("a\\b\"c\nd"),
            "a\\\\b\\\"c\\nd");
}

TEST(PromWriter, HistogramCumulativeInvariant) {
  auto t = anon_obs();
  obs::Histogram h = t->registry().histogram("test.latency");
  ASSERT_TRUE(h.valid());
  h.add(1);
  h.add(3);
  h.add(100);

  PromWriter w;
  w.family_histogram("test.latency", {{"session", "s"}}, *h.slot());
  std::string text = w.render();

  EXPECT_NE(text.find("# TYPE teeperf_test_latency histogram"),
            std::string::npos);
  EXPECT_NE(text.find("teeperf_test_latency_bucket{session=\"s\",le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("teeperf_test_latency_sum{session=\"s\"} 104"),
            std::string::npos);
  EXPECT_NE(text.find("teeperf_test_latency_count{session=\"s\"} 3"),
            std::string::npos);

  // Buckets are cumulative and non-decreasing, with strictly increasing
  // upper bounds, and the last finite bucket never exceeds +Inf's count.
  u64 prev_cum = 0;
  long long prev_le = -1;
  for (const std::string& line : lines_of(text)) {
    unsigned long long le = 0, cum = 0;
    if (std::sscanf(line.c_str(),
                    "teeperf_test_latency_bucket{session=\"s\",le=\"%llu\"} %llu",
                    &le, &cum) == 2) {
      EXPECT_GT(static_cast<long long>(le), prev_le);
      EXPECT_GE(cum, prev_cum);
      EXPECT_LE(cum, 3u);
      prev_le = static_cast<long long>(le);
      prev_cum = cum;
    }
  }
  EXPECT_EQ(prev_cum, 3u) << "last finite bucket must reach the count";
}

// obs allows one name to be registered as both a gauge and a histogram
// (the watchdog's counter.ns_per_tick_pico is exactly that); the exporter
// must keep the page valid by moving the histogram to "<name>_hist".
TEST(PromWriter, GaugeHistogramNameCollision) {
  auto t = anon_obs();
  t->registry().gauge("counter.ns_per_tick_pico").set(370);
  obs::Histogram h = t->registry().histogram("counter.ns_per_tick_pico");
  ASSERT_TRUE(h.valid());
  h.add(370);

  PromWriter w;
  w.collect(t->registry(), {});
  std::string text = w.render();

  EXPECT_NE(text.find("# TYPE teeperf_counter_ns_per_tick_pico gauge\n"
                      "teeperf_counter_ns_per_tick_pico 370\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE teeperf_counter_ns_per_tick_pico_hist histogram"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("teeperf_counter_ns_per_tick_pico_hist_count 1"),
            std::string::npos)
      << text;
  // The plain gauge family must not contain histogram sample suffixes.
  usize gauge_pos = text.find("# TYPE teeperf_counter_ns_per_tick_pico gauge");
  usize hist_pos = text.find("_hist");
  ASSERT_NE(gauge_pos, std::string::npos);
  ASSERT_NE(hist_pos, std::string::npos);
  EXPECT_LT(gauge_pos, hist_pos) << "scalar family must render first";
}

// Every statically registered obs metric name must round-trip through the
// exporter: a name added to metric_names.h without exporter coverage (or a
// collision after sanitization) fails here.
TEST(PromWriter, EveryRegisteredNameRoundTrips) {
  namespace names = obs::metric_names;
  auto t = anon_obs();
  usize n = sizeof(names::kAllStatic) / sizeof(names::kAllStatic[0]);
  for (usize i = 0; i < n; ++i) {
    obs::Gauge g = t->registry().gauge(names::kAllStatic[i]);
    ASSERT_TRUE(g.valid()) << names::kAllStatic[i];
    g.set(i + 1);
  }

  PromWriter w;
  w.collect(t->registry(), {});
  std::string text = w.render();

  std::set<std::string> sanitized;
  for (usize i = 0; i < n; ++i) {
    std::string fam = PromWriter::sanitize_name(names::kAllStatic[i]);
    EXPECT_TRUE(sanitized.insert(fam).second)
        << "sanitize_name not injective at " << names::kAllStatic[i];
    std::string sample = fam + " " + std::to_string(i + 1) + "\n";
    EXPECT_NE(text.find(sample), std::string::npos)
        << names::kAllStatic[i] << " did not export as " << sample;
    EXPECT_NE(text.find("# HELP " + fam + " obs metric " +
                        names::kAllStatic[i] + "\n"),
              std::string::npos);
  }
}

TEST(PromWriter, DynamicNamesFoldIntoLabels) {
  auto t = anon_obs();
  t->registry().gauge("log.shard.0.tail").set(10);
  t->registry().gauge("log.shard.1.tail").set(20);
  t->registry().counter("app.thread.123.entries").add(7);
  t->registry().counter("app.thread.other.entries").add(2);
  t->registry().gauge("fault.arm.shm.create.fail").set(1);

  PromWriter w;
  w.collect(t->registry(), {{"session", "s"}});
  std::string text = w.render();

  EXPECT_NE(text.find("teeperf_log_shard_tail{session=\"s\",shard=\"0\"} 10"),
            std::string::npos);
  EXPECT_NE(text.find("teeperf_log_shard_tail{session=\"s\",shard=\"1\"} 20"),
            std::string::npos);
  EXPECT_NE(
      text.find("teeperf_app_thread_entries{session=\"s\",thread=\"123\"} 7"),
      std::string::npos);
  // The "other" bucket is not per-tid; it keeps its own family.
  EXPECT_NE(text.find("teeperf_app_thread_other_entries{session=\"s\"} 2"),
            std::string::npos);
  // Transient arming requests never leak into the exposition.
  EXPECT_EQ(text.find("fault_arm"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Session registry.

TEST(SessionRegistry, JsonRoundTrip) {
  session_registry::SessionDescriptor d;
  d.name = "teeperf.123.deadbeef";
  d.pid = 123;
  d.log_shm = "/teeperf.123.deadbeef.log";
  d.obs_shm = "/teeperf.123.deadbeef.obs";
  d.prefix = "/tmp/out \"quoted\\path\"";
  d.capacity = 1 << 20;
  d.shards = 8;
  d.start_ns = 987654321;

  session_registry::SessionDescriptor back;
  ASSERT_TRUE(session_registry::from_json(session_registry::to_json(d), &back));
  EXPECT_EQ(back.name, d.name);
  EXPECT_EQ(back.pid, d.pid);
  EXPECT_EQ(back.log_shm, d.log_shm);
  EXPECT_EQ(back.obs_shm, d.obs_shm);
  EXPECT_EQ(back.prefix, d.prefix);
  EXPECT_EQ(back.capacity, d.capacity);
  EXPECT_EQ(back.shards, d.shards);
  EXPECT_EQ(back.start_ns, d.start_ns);

  // Required fields and the name charset are enforced.
  session_registry::SessionDescriptor bad;
  EXPECT_FALSE(session_registry::from_json("{\"pid\":1}", &bad));
  EXPECT_FALSE(
      session_registry::from_json("{\"name\":\"a/b\",\"pid\":1}", &bad));
}

TEST(SessionRegistry, PublishListUnpublish) {
  std::string dir = make_temp_dir("teeperf_reg_");
  EXPECT_TRUE(session_registry::list_sessions(dir + "/missing").empty());

  session_registry::SessionDescriptor d;
  d.name = "teeperf.1.aa";
  d.pid = static_cast<u64>(getpid());
  d.obs_shm = "/teeperf.1.aa.obs";
  ASSERT_TRUE(session_registry::publish_session(dir, d));
  d.name = "teeperf.1.bb";
  ASSERT_TRUE(session_registry::publish_session(dir, d));

  auto sessions = session_registry::list_sessions(dir);
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].name, "teeperf.1.aa");  // sorted by name
  EXPECT_EQ(sessions[1].name, "teeperf.1.bb");
  EXPECT_EQ(sessions[0].obs_shm, "/teeperf.1.aa.obs");

  EXPECT_TRUE(session_registry::unpublish_session(dir, "teeperf.1.aa"));
  EXPECT_EQ(session_registry::list_sessions(dir).size(), 1u);

  // A descriptor whose filename disagrees with its body is untrusted.
  ASSERT_TRUE(write_file(dir + "/impostor.json",
                         session_registry::to_json(sessions[1])));
  EXPECT_EQ(session_registry::list_sessions(dir).size(), 1u);

  session_registry::SessionDescriptor traversal;
  traversal.name = "../escape";
  traversal.pid = 1;
  EXPECT_FALSE(session_registry::publish_session(dir, traversal));
}

TEST(SessionRegistry, GcReclaimsDeadSessionsAndSparesLive) {
  std::string dir = make_temp_dir("teeperf_gc_");
  u64 dead = dead_pid();

  // Orphaned shm the dead "session" left behind, in the exact naming scheme.
  std::string base = session_registry::shm_base(dead, 0xabcdef12);
  for (const char* suffix : {".log", ".obs"}) {
    int fd = shm_open((base + suffix).c_str(), O_CREAT | O_RDWR, 0600);
    ASSERT_GE(fd, 0);
    close(fd);
  }
  session_registry::SessionDescriptor stale;
  stale.name = base.substr(1);
  stale.pid = dead;
  stale.log_shm = base + ".log";
  stale.obs_shm = base + ".obs";
  ASSERT_TRUE(session_registry::publish_session(dir, stale));

  // A live session (this process) must survive the sweep.
  session_registry::SessionDescriptor live;
  live.name = "teeperf.live";
  live.pid = static_cast<u64>(getpid());
  ASSERT_TRUE(session_registry::publish_session(dir, live));

  auto r = session_registry::gc_stale_sessions(dir);
  EXPECT_GE(r.descriptors, 1u);
  EXPECT_GE(r.segments, 2u);

  auto left = session_registry::list_sessions(dir);
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0].name, "teeperf.live");
  int fd = shm_open((base + ".log").c_str(), O_RDONLY, 0600);
  EXPECT_LT(fd, 0) << "orphaned segment must be unlinked";
  if (fd >= 0) close(fd);
  session_registry::unpublish_session(dir, "teeperf.live");
}

TEST(SessionRegistry, GcNeverTouchesForeignShmNames) {
  std::string dir = make_temp_dir("teeperf_gcf_");
  u64 dead = dead_pid();

  // A legacy-style name ("/teeperf.test") does not embed a pid; GC must
  // leave it alone even when a tampered descriptor claims it.
  const char* foreign = "/teeperf.test_monitord_foreign";
  int fd = shm_open(foreign, O_CREAT | O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  close(fd);

  session_registry::SessionDescriptor evil;
  evil.name = "teeperf.evil";
  evil.pid = dead;
  evil.log_shm = foreign;
  ASSERT_TRUE(session_registry::publish_session(dir, evil));

  auto r = session_registry::gc_stale_sessions(dir);
  EXPECT_GE(r.descriptors, 1u);  // the stale descriptor itself goes
  fd = shm_open(foreign, O_RDONLY, 0600);
  EXPECT_GE(fd, 0) << "foreign segment must survive GC";
  if (fd >= 0) close(fd);
  shm_unlink(foreign);
}

// ---------------------------------------------------------------------------
// Monitord lifecycle against real Recorder sessions.

namespace {

std::unique_ptr<Recorder> make_session(const std::string& dir,
                                       u64 entries = 4096,
                                       bool telemetry = true) {
  RecorderOptions opts;
  opts.shm_name = "auto";
  opts.session_dir = dir;
  opts.max_entries = entries;
  opts.start_active = true;
  opts.telemetry = telemetry;
  auto rec = Recorder::create(opts);
  EXPECT_NE(rec, nullptr);
  if (rec) {
    EXPECT_FALSE(rec->session_name().empty());
  }
  return rec;
}

MonitordOptions monitor_options(const std::string& dir) {
  MonitordOptions opts;
  opts.session_dir = dir;
  opts.flame_interval_ms = 0;  // rebuild on every poll
  opts.gc_interval_ms = 0;     // GC on every poll
  return opts;
}

}  // namespace

TEST(Monitord, AttachScrapeDetach) {
  std::string dir = make_temp_dir("teeperf_mond_");
  // Telemetry off: exercises the daemon's log-derived fallback gauges (an
  // obs-backed session is covered by MultipleSessionsAndAttachmentCap).
  auto rec = make_session(dir, 4096, /*telemetry=*/false);
  ASSERT_NE(rec, nullptr);
  std::string name = rec->session_name();

  Monitord daemon(monitor_options(dir));
  daemon.poll();
  EXPECT_EQ(daemon.attached_count(), 1u);

  std::string text = daemon.scrape_metrics();
  std::string label = "session=\"" + name + "\",pid=\"" +
                      std::to_string(getpid()) + "\"";
  EXPECT_NE(text.find(label), std::string::npos) << text;
  EXPECT_NE(text.find("teeperf_monitord_sessions_attached 1"),
            std::string::npos);
  EXPECT_NE(text.find("teeperf_session_up{" + label + "} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE teeperf_log_tail gauge"), std::string::npos)
      << text;
  EXPECT_NE(text.find(name), std::string::npos);
  std::string json = daemon.sessions_json();
  EXPECT_NE(json.find("\"name\":\"" + name + "\""), std::string::npos);

  // Clean exit withdraws the descriptor; the daemon detaches on next poll.
  rec.reset();
  daemon.poll();
  EXPECT_EQ(daemon.attached_count(), 0u);
  text = daemon.scrape_metrics();
  EXPECT_EQ(text.find(label), std::string::npos);
  EXPECT_NE(text.find("teeperf_monitord_sessions_attached 0"),
            std::string::npos);
}

TEST(Monitord, MultipleSessionsAndAttachmentCap) {
  std::string dir = make_temp_dir("teeperf_monm_");
  auto a = make_session(dir);
  auto b = make_session(dir);
  auto c = make_session(dir);
  ASSERT_TRUE(a && b && c);

  {
    Monitord daemon(monitor_options(dir));
    daemon.poll();
    EXPECT_EQ(daemon.attached_count(), 3u);
    std::string text = daemon.scrape_metrics();
    for (const auto* rec : {a.get(), b.get(), c.get()}) {
      EXPECT_NE(text.find("session=\"" + rec->session_name() + "\""),
                std::string::npos);
    }
  }

  MonitordOptions capped = monitor_options(dir);
  capped.max_sessions = 2;
  Monitord daemon(capped);
  daemon.poll();
  EXPECT_EQ(daemon.attached_count(), 2u);
}

TEST(Monitord, RollingFlameGraphsFromLiveLog) {
  std::string dir = make_temp_dir("teeperf_monf_");
  auto rec = make_session(dir);
  ASSERT_NE(rec, nullptr);

  // A tiny call tree straight into the shm log: main → leaf → (return ×2).
  ProfileLog& log = rec->log();
  ASSERT_TRUE(log.append(EventKind::kCall, 0x1000, 1, 10));
  ASSERT_TRUE(log.append(EventKind::kCall, 0x2000, 1, 20));
  ASSERT_TRUE(log.append(EventKind::kReturn, 0x2000, 1, 30));
  ASSERT_TRUE(log.append(EventKind::kReturn, 0x1000, 1, 40));

  Monitord daemon(monitor_options(dir));
  daemon.poll();
  ASSERT_EQ(daemon.attached_count(), 1u);

  auto folded = daemon.flamegraph_folded(rec->session_name());
  ASSERT_TRUE(folded.has_value());
  EXPECT_FALSE(folded->empty());
  EXPECT_NE(folded->find(';'), std::string::npos)
      << "expected a nested stack: " << *folded;

  auto svg = daemon.flamegraph_svg(rec->session_name());
  ASSERT_TRUE(svg.has_value());
  EXPECT_NE(svg->find("<svg"), std::string::npos);

  EXPECT_FALSE(daemon.flamegraph_folded("no.such.session").has_value());
}

// Daemon memory stays flat over 100 scrape cycles against a live session
// (rolling windows, not unbounded accumulation): live heap bytes grow by
// less than 32 MB.
TEST(Monitord, ScrapeLoopMemoryBounded) {
  std::string dir = make_temp_dir("teeperf_monb_");
  auto rec = make_session(dir, 1u << 14);
  ASSERT_NE(rec, nullptr);
  ProfileLog& log = rec->log();
  for (u64 i = 0; i < 2000; ++i) {
    log.append(i % 2 ? EventKind::kReturn : EventKind::kCall,
               0x1000 + (i % 16) * 8, 1, i * 3);
  }

  MonitordOptions opts = monitor_options(dir);
  opts.flame_window_entries = 4096;
  Monitord daemon(opts);
  // Warm-up: first poll pays the attach + allocator high-water costs.
  daemon.poll();
  (void)daemon.scrape_metrics();

  u64 before = live_heap_bytes();
  for (int i = 0; i < 100; ++i) {
    daemon.poll();
    std::string text = daemon.scrape_metrics();
    ASSERT_FALSE(text.empty());
  }
  u64 after = live_heap_bytes();
  ASSERT_GT(before, 0u);
  EXPECT_LT(after, before + (32ull << 20))
      << "live heap grew by " << (after - before) << " bytes over 100 scrapes";
}

// ---------------------------------------------------------------------------
// Local HTTP server + client.

TEST(MonitordHttp, ServeAndGet) {
  HttpServer server([](const std::string& path) {
    if (path == "/hello") return HttpResponse{200, "text/plain", "world\n"};
    if (path == "/echo?q=1") return HttpResponse{200, "text/plain", "query\n"};
    return HttpResponse{404, "text/plain", "nope\n"};
  });
  std::string error;
  ASSERT_TRUE(server.serve("127.0.0.1:0", &error)) << error;
  ASSERT_GT(server.port(), 0);
  std::string root = "http://127.0.0.1:" + std::to_string(server.port());

  int status = 0;
  std::string body;
  ASSERT_TRUE(http_get(root + "/hello", &status, &body, &error)) << error;
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "world\n");

  ASSERT_TRUE(http_get(root + "/echo?q=1", &status, &body, &error)) << error;
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "query\n");

  ASSERT_TRUE(http_get(root + "/missing", &status, &body, &error)) << error;
  EXPECT_EQ(status, 404);

  server.shutdown();
  EXPECT_FALSE(http_get(root + "/hello", &status, &body, &error));
}
