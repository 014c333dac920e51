// Tests for the analyzer report extensions (thread rollup, CSV export,
// before/after diff), env-driven cross-process attachment, and the
// additional TEE cost-model profiles.
#include <gtest/gtest.h>

#include <cstdlib>
#include <unistd.h>

#include "analyzer/fold.h"
#include "analyzer/mprof.h"
#include "analyzer/profile.h"
#include "analyzer/report.h"
#include "common/fileutil.h"
#include "common/spin.h"
#include "common/stringutil.h"
#include "core/auto_attach.h"
#include "core/profiler.h"
#include "core/symbol_dump.h"
#include "perfsim/sampler.h"
#include "tee/enclave.h"
#include "tee/epc.h"
#include "tee/sysapi.h"

namespace teeperf {
namespace {

using analyzer::Profile;

class ReportsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (runtime::attached()) runtime::detach();
  }

  Profile record(const std::function<void()>& fn) {
    RecorderOptions opts;
    opts.counter_mode = CounterMode::kSteadyClock;
    auto rec = Recorder::create(opts);
    EXPECT_TRUE(rec->attach());
    fn();
    rec->detach();
    return Profile::from_log(
        rec->log(), SymbolRegistry::parse(SymbolRegistry::instance().serialize()));
  }
};

TEST_F(ReportsTest, ThreadReportListsEachThread) {
  auto profile = record([] {
    std::thread t([] {
      TEEPERF_SCOPE("rep::worker_fn");
    });
    {
      TEEPERF_SCOPE("rep::main_fn");
    }
    t.join();
  });
  std::string report = analyzer::thread_report(profile);
  EXPECT_NE(report.find("rep::worker_fn"), std::string::npos);
  EXPECT_NE(report.find("rep::main_fn"), std::string::npos);
  // Two distinct tid rows (header + 2 lines minimum).
  EXPECT_GE(std::count(report.begin(), report.end(), '\n'), 3);
}

TEST_F(ReportsTest, CsvExportRowPerInvocation) {
  auto profile = record([] {
    for (int i = 0; i < 3; ++i) {
      TEEPERF_SCOPE("rep::csv_fn");
    }
  });
  std::string csv = analyzer::csv_export(profile);
  auto lines = split(csv, '\n');
  // header + 3 rows + trailing empty
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_TRUE(starts_with(lines[0], "method,tid,depth"));
  EXPECT_NE(lines[1].find("rep::csv_fn"), std::string_view::npos);
  EXPECT_TRUE(ends_with(lines[1], ",1"));  // complete flag
}

TEST_F(ReportsTest, CsvQuotesEmbeddedQuotes) {
  auto profile = record([] {
    TEEPERF_SCOPE("rep::has\"quote");
  });
  std::string csv = analyzer::csv_export(profile);
  EXPECT_NE(csv.find("\"rep::has\"\"quote\""), std::string::npos);
}

TEST_F(ReportsTest, DiffReportShowsDelta) {
  u64 slow = SymbolRegistry::instance().intern("rep::optimize_me");
  auto before = record([&] {
    Scope s(slow);
    spin_for_ns(20'000'000);
  });
  auto after = record([&] {
    Scope s(slow);
    spin_for_ns(1'000'000);
  });
  std::string diff = analyzer::diff_report(analyzer::MergeableProfile::from_profile(before),
                                         analyzer::MergeableProfile::from_profile(after));
  EXPECT_NE(diff.find("rep::optimize_me"), std::string::npos);
  EXPECT_NE(diff.find("delta(ms)"), std::string::npos);
  // The improvement must render as a negative delta.
  EXPECT_NE(diff.find("-"), std::string::npos);
}

TEST_F(ReportsTest, CallTreeReportNestsAndSums) {
  auto profile = record([] {
    TEEPERF_SCOPE("tree::root_fn");
    for (int i = 0; i < 2; ++i) {
      TEEPERF_SCOPE("tree::child_fn");
      spin_for_ns(1'000'000);
    }
  });
  std::string tree = analyzer::call_tree_report(profile.path_tree(), 0.0);
  usize root_pos = tree.find("tree::root_fn");
  usize child_pos = tree.find("tree::child_fn");
  ASSERT_NE(root_pos, std::string::npos);
  ASSERT_NE(child_pos, std::string::npos);
  EXPECT_LT(root_pos, child_pos);  // top-down ordering
  EXPECT_NE(tree.find("100.0%"), std::string::npos);  // the <all threads> root
}

TEST_F(ReportsTest, CallTreeFoldsTinyNodes) {
  auto profile = record([] {
    TEEPERF_SCOPE("tree::big");
    spin_for_ns(20'000'000);
    for (int i = 0; i < 3; ++i) {
      TEEPERF_SCOPE("tree::tiny");
    }
  });
  std::string tree = analyzer::call_tree_report(profile.path_tree(), 0.05);
  EXPECT_EQ(tree.find("tree::tiny"), std::string::npos);
  EXPECT_NE(tree.find("(other: 1 callees)"), std::string::npos);
}

TEST_F(ReportsTest, TimelineCsvSortedByThreadAndStart) {
  auto profile = record([] {
    TEEPERF_SCOPE("tl::first");
    TEEPERF_SCOPE("tl::second");
  });
  std::string csv = analyzer::timeline_csv(profile);
  auto lines = split(csv, '\n');
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[0], "tid,method,start,end,depth");
  EXPECT_NE(lines[1].find("tl::first"), std::string_view::npos);
  EXPECT_TRUE(ends_with(lines[1], ",0"));
  EXPECT_NE(lines[2].find("tl::second"), std::string_view::npos);
  EXPECT_TRUE(ends_with(lines[2], ",1"));
}

TEST_F(ReportsTest, ChromeTraceJsonWellFormed) {
  auto profile = record([] {
    TEEPERF_SCOPE("ct::a\"quoted");
    TEEPERF_SCOPE("ct::b");
  });
  std::string json = analyzer::chrome_trace_json(profile);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("ct::b"), std::string::npos);
  EXPECT_NE(json.find("\\\""), std::string::npos);  // escaped quote in name
  // 2 events → exactly one separating comma between objects.
  EXPECT_NE(json.find("},\n{"), std::string::npos);
}

TEST_F(ReportsTest, GprofFlatReportColumns) {
  auto profile = record([] {
    for (int i = 0; i < 4; ++i) {
      TEEPERF_SCOPE("gp::hot");
      spin_for_ns(2'000'000);
    }
  });
  std::string report = analyzer::gprof_flat_report(
      analyzer::MergeableProfile::from_profile(profile));
  EXPECT_NE(report.find("Flat profile"), std::string::npos);
  EXPECT_NE(report.find("ms/call"), std::string::npos);
  EXPECT_NE(report.find("gp::hot"), std::string::npos);
  EXPECT_NE(report.find("       4 "), std::string::npos);  // the call count
}

TEST_F(ReportsTest, RingRecorderKeepsNewestWindow) {
  RecorderOptions opts;
  opts.counter_mode = CounterMode::kSteadyClock;
  opts.max_entries = 64;
  opts.ring_buffer = true;
  auto rec = Recorder::create(opts);
  ASSERT_TRUE(rec->attach());
  u64 early = SymbolRegistry::instance().intern("ring::early");
  u64 late = SymbolRegistry::instance().intern("ring::late");
  for (int i = 0; i < 200; ++i) {
    Scope s(early);
  }
  for (int i = 0; i < 20; ++i) {
    Scope s(late);
  }
  rec->detach();
  EXPECT_EQ(rec->log().dropped(), 0u);

  auto profile = Profile::from_log(
      rec->log(), SymbolRegistry::parse(SymbolRegistry::instance().serialize()));
  // The late scope's 40 events all survive in order.
  usize late_count = 0;
  for (const auto& inv : profile.invocations()) {
    if (inv.method == late) ++late_count;
  }
  EXPECT_EQ(late_count, 20u);
  EXPECT_EQ(profile.recon_stats().mismatched_returns, 0u);

  // Dump normalizes the wrap: the reloaded profile matches.
  std::string dir = make_temp_dir("teeperf_ring_");
  ASSERT_TRUE(rec->dump(dir + "/ring"));
  auto loaded = Profile::load(dir + "/ring");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->invocations().size(), profile.invocations().size());
  remove_tree(dir);
}

TEST(PerfsimReport, FlatReportFormats) {
  if (runtime::attached()) runtime::detach();
  ASSERT_TRUE(runtime::attach(nullptr, CounterMode::kTsc, nullptr));
  u64 hot = SymbolRegistry::instance().intern("pr::hot");
  perfsim::SamplerOptions opts;
  opts.frequency_hz = 2000;
  perfsim::SamplingProfiler sampler(opts);
  ASSERT_TRUE(sampler.start());
  {
    Scope s(hot);
    spin_for_ns(200'000'000);
  }
  sampler.stop();
  runtime::detach();
  std::string report = sampler.flat_report(
      [](u64 id) { return SymbolRegistry::instance().name_of(id); });
  EXPECT_NE(report.find("Samples:"), std::string::npos);
  EXPECT_NE(report.find("pr::hot"), std::string::npos);
  EXPECT_NE(report.find("overhead"), std::string::npos);
}

TEST_F(ReportsTest, BottomUpGroupsByCaller) {
  u64 shared = SymbolRegistry::instance().intern("bu::shared_helper");
  auto profile = record([&] {
    {
      TEEPERF_SCOPE("bu::path_one");
      Scope s(shared);
      spin_for_ns(4'000'000);
    }
    {
      TEEPERF_SCOPE("bu::path_two");
      Scope s(shared);
      spin_for_ns(1'000'000);
    }
  });
  std::string report = analyzer::bottom_up_report(profile.path_tree());
  usize helper_pos = report.find("bu::shared_helper");
  ASSERT_NE(helper_pos, std::string::npos);
  usize one_pos = report.find("from bu::path_one");
  usize two_pos = report.find("from bu::path_two");
  ASSERT_NE(one_pos, std::string::npos);
  ASSERT_NE(two_pos, std::string::npos);
  EXPECT_LT(one_pos, two_pos);  // heavier caller listed first
}

// --- env-driven attachment (the recorder-wrapper protocol) ------------------

class AutoAttachTest : public ::testing::Test {
 protected:
  void TearDown() override {
    detach_env_session();
    unsetenv("TEEPERF_SHM");
    unsetenv("TEEPERF_COUNTER");
    unsetenv("TEEPERF_SYM");
    if (runtime::attached()) runtime::detach();
  }
};

TEST_F(AutoAttachTest, NoEnvMeansNoop) {
  unsetenv("TEEPERF_SHM");
  EXPECT_FALSE(try_attach_from_env());
  EXPECT_FALSE(attached_from_env());
}

TEST_F(AutoAttachTest, AttachesToWrapperLog) {
  // Simulate the wrapper: create + format a named region.
  std::string name = str_format("/teeperf_aa_%d", getpid());
  SharedMemoryRegion wrapper_side;
  usize bytes = ProfileLog::bytes_for(1024);
  ASSERT_TRUE(wrapper_side.create(name, bytes));
  ProfileLog wrapper_log;
  ASSERT_TRUE(wrapper_log.init(wrapper_side.data(), bytes, 0,
                               log_flags::kActive | log_flags::kRecordCalls |
                                   log_flags::kRecordReturns));

  std::string sym_path = make_temp_dir("teeperf_aa_sym_") + "/out.sym";
  setenv("TEEPERF_SHM", name.c_str(), 1);
  setenv("TEEPERF_COUNTER", "steady_clock", 1);
  setenv("TEEPERF_SYM", sym_path.c_str(), 1);

  ASSERT_TRUE(try_attach_from_env());
  EXPECT_TRUE(attached_from_env());
  EXPECT_TRUE(try_attach_from_env());  // idempotent

  {
    TEEPERF_SCOPE("aa::through_env");
  }
  detach_env_session();
  EXPECT_FALSE(attached_from_env());

  // Events landed in the wrapper's mapping.
  ASSERT_EQ(wrapper_log.size(), 2u);
  // And the sym sidecar was written at detach.
  auto sym = read_file(sym_path);
  ASSERT_TRUE(sym.has_value());
  EXPECT_NE(sym->find("aa::through_env"), std::string::npos);
}

TEST_F(AutoAttachTest, FilterFromEnvAllowlist) {
  std::string name = str_format("/teeperf_aaf_%d", getpid());
  SharedMemoryRegion wrapper_side;
  usize bytes = ProfileLog::bytes_for(1024);
  ASSERT_TRUE(wrapper_side.create(name, bytes));
  ProfileLog wrapper_log;
  ASSERT_TRUE(wrapper_log.init(wrapper_side.data(), bytes, 0,
                               log_flags::kActive | log_flags::kRecordCalls |
                                   log_flags::kRecordReturns));

  setenv("TEEPERF_SHM", name.c_str(), 1);
  setenv("TEEPERF_FILTER", "allow:aaf::wanted,aaf::also", 1);
  ASSERT_TRUE(try_attach_from_env());
  {
    TEEPERF_SCOPE("aaf::wanted");
    TEEPERF_SCOPE("aaf::noise");
  }
  detach_env_session();

  ASSERT_EQ(wrapper_log.size(), 2u);
  EXPECT_EQ(SymbolRegistry::instance().name_of(wrapper_log.window(0)[0].addr),
            "aaf::wanted");
}

TEST_F(AutoAttachTest, MalformedFilterRecordsEverything) {
  std::string name = str_format("/teeperf_aam_%d", getpid());
  SharedMemoryRegion wrapper_side;
  usize bytes = ProfileLog::bytes_for(1024);
  ASSERT_TRUE(wrapper_side.create(name, bytes));
  ProfileLog wrapper_log;
  ASSERT_TRUE(wrapper_log.init(wrapper_side.data(), bytes, 0,
                               log_flags::kActive | log_flags::kRecordCalls |
                                   log_flags::kRecordReturns));
  setenv("TEEPERF_SHM", name.c_str(), 1);
  setenv("TEEPERF_FILTER", "not_a_mode:x", 1);
  ASSERT_TRUE(try_attach_from_env());
  {
    TEEPERF_SCOPE("aam::anything");
  }
  detach_env_session();
  EXPECT_EQ(wrapper_log.size(), 2u);
}

TEST_F(AutoAttachTest, BadShmNameFailsCleanly) {
  setenv("TEEPERF_SHM", "/teeperf_definitely_missing", 1);
  EXPECT_FALSE(try_attach_from_env());
  EXPECT_FALSE(runtime::attached());
}

// --- additional TEE profiles -------------------------------------------------

TEST(TeeProfiles, TrustZoneHasNoRdtscTrap) {
  tee::Enclave e(tee::CostModel::trustzone_like());
  e.ecall([] { tee::sys::rdtsc(); });
  EXPECT_EQ(e.counters().rdtsc_traps.load(), 0u);
}

TEST(TeeProfiles, TrustZoneStillTrapsSyscalls) {
  tee::Enclave e(tee::CostModel::trustzone_like());
  e.ecall([] { tee::sys::getpid(); });
  EXPECT_EQ(e.counters().trapped_syscalls.load(), 1u);
}

TEST(TeeProfiles, SevHasFreeTransitions) {
  tee::CostModel sev = tee::CostModel::sev_like();
  EXPECT_EQ(sev.ecall_ns, 0u);
  EXPECT_EQ(sev.eexit_ns, 0u);
  EXPECT_GT(sev.mee_cacheline_ns, 0u);
  tee::Enclave e(sev);
  u64 t0 = e.charged_ns();
  e.ecall([] {});
  EXPECT_EQ(e.charged_ns(), t0);
}

TEST(TeeProfiles, SyscallCostOrderingSgxWorst) {
  // The multi-TEE ablation's premise.
  EXPECT_GT(tee::CostModel::sgx_like().syscall_ocall_ns,
            tee::CostModel::trustzone_like().syscall_ocall_ns);
  EXPECT_GT(tee::CostModel::trustzone_like().syscall_ocall_ns,
            tee::CostModel::sev_like().syscall_ocall_ns);
}

// --- EPC paging appears in profiles ------------------------------------------

TEST(TeeProfiles, SecurePagingIsAScopedFrame) {
  RecorderOptions opts;
  opts.counter_mode = CounterMode::kSteadyClock;
  auto rec = Recorder::create(opts);
  ASSERT_TRUE(rec->attach());

  tee::CostModel cm = tee::CostModel::zero();
  cm.epc_page_in_ns = 1000;
  tee::Enclave enclave(cm);
  tee::EpcAllocator epc(&enclave, 4);
  auto buf = epc.allocate(8 * tee::kEpcPageSize);
  enclave.ecall([&] {
    for (usize p = 0; p < 8; ++p) buf->touch(p * tee::kEpcPageSize, 1, true);
  });
  rec->detach();

  auto profile = Profile::from_log(
      rec->log(), SymbolRegistry::parse(SymbolRegistry::instance().serialize()));
  auto agg = analyzer::MergeableProfile::from_profile(profile);
  auto paging = agg.methods.find("epc::secure_paging");
  ASSERT_NE(paging, agg.methods.end());
  EXPECT_EQ(paging->second.count, 8u);
  if (runtime::attached()) runtime::detach();
}

TEST(SamplerFolded, BuildsPathsFromSamples) {
  if (runtime::attached()) runtime::detach();
  ASSERT_TRUE(runtime::attach(nullptr, CounterMode::kTsc, nullptr));
  u64 outer = SymbolRegistry::instance().intern("sf::outer");
  u64 inner = SymbolRegistry::instance().intern("sf::inner");
  perfsim::SamplerOptions opts;
  opts.frequency_hz = 2000;
  perfsim::SamplingProfiler sampler(opts);
  ASSERT_TRUE(sampler.start());
  {
    Scope o(outer);
    Scope i(inner);
    spin_for_ns(200'000'000);
  }
  sampler.stop();
  runtime::detach();

  auto folded = sampler.folded_stacks(
      [](u64 id) { return SymbolRegistry::instance().name_of(id); });
  ASSERT_FALSE(folded.empty());
  u64 nested = 0, total = 0;
  for (auto& [path, n] : folded) {
    total += n;
    if (path == "sf::outer;sf::inner") nested += n;
  }
  // Nearly all samples land with the full two-frame stack.
  EXPECT_GT(nested * 10, total * 8);
}

}  // namespace
}  // namespace teeperf
