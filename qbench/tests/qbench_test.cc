// Self-tests of the benchmark's own machinery: the percentile rule, the
// open-loop schedule and its due-time latency, the metric schema (and its
// agreement with BENCHMARK.json), the serving stage split, QCore churn, the
// traced mirror of ContinualDriver::ProcessBatch, and the fleet digest.
// Run with `python3 qbench/run.py --test`.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "core/continual.h"
#include "data/har_generator.h"
#include "qbench/lib/layers.h"
#include "qbench/lib/stats.h"
#include "qbench/lib/workloads.h"

namespace qbench {
namespace {

// ------------------------------------------------------- percentile rule

TEST(PercentileRule, CapsAtTargetWhenTheSampleSupportsIt) {
  EXPECT_DOUBLE_EQ(ChooseTail(1000, 0.99).q, 0.99);
  EXPECT_DOUBLE_EQ(ChooseTail(100, 0.90).q, 0.90);
  EXPECT_TRUE(ChooseTail(100, 0.90).supported);
}

TEST(PercentileRule, FallsBackToTheHighestPercentileWithTenBeyond) {
  EXPECT_DOUBLE_EQ(ChooseTail(40, 0.90).q, 0.75);
  EXPECT_DOUBLE_EQ(ChooseTail(500, 0.99).q, 0.98);
  const TailChoice tiny = ChooseTail(19, 0.90);
  EXPECT_FALSE(tiny.supported);
  EXPECT_DOUBLE_EQ(tiny.q, 0.5);
}

TEST(PercentileRule, LeavesAtLeastTenSamplesBeyondTheTail) {
  for (size_t n = 20; n <= 600; ++n) {
    std::vector<double> v;
    for (size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
    for (double target : {0.9, 0.99}) {
      const double tail = Quantile(v, ChooseTail(n, target).q);
      const auto beyond = std::count_if(v.begin(), v.end(),
                                        [&](double x) { return x > tail; });
      EXPECT_GE(beyond, 10) << "n=" << n << " target=" << target;
    }
  }
}

TEST(PercentileRule, NearestRankQuantile) {
  const std::vector<double> v = {7, 3, 9, 1, 5, 2, 8, 4, 10, 6};
  EXPECT_EQ(Quantile(v, 0.0), 1);
  EXPECT_EQ(Quantile(v, 0.5), 5);
  EXPECT_EQ(Quantile(v, 0.9), 9);
  EXPECT_EQ(Quantile(v, 1.0), 10);
}

TEST(PercentileRule, SummaryReportsTheSampleCount) {
  std::vector<double> v(250);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  const Summary s = Summarize(v, 0.99);
  EXPECT_EQ(s.n, 250u);
  EXPECT_DOUBLE_EQ(s.tail_q, 0.96);
  EXPECT_EQ(s.p50, 125);
  EXPECT_EQ(s.tail, 240);
  EXPECT_EQ(TailNote(s, 0.99),
            "(p96 of n=250; too few samples for the named tail)");
  EXPECT_EQ(TailNote(Summarize(v, 0.9), 0.9), "(p90 of n=250)");
}

// ------------------------------------------------------ open-loop schedule

TEST(OpenLoop, ScheduleIsAPureFunctionOfTheSeed) {
  const auto a = MakeOpenLoopSchedule(7, 2000.0, 2.0, 64, 32);
  const auto b = MakeOpenLoopSchedule(7, 2000.0, 2.0, 64, 32);
  const auto c = MakeOpenLoopSchedule(8, 2000.0, 2.0, 64, 32);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_ns, b[i].due_ns);
    EXPECT_EQ(a[i].device, b[i].device);
    EXPECT_EQ(a[i].input, b[i].input);
  }
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].due_ns != c[i].due_ns;
  }
  EXPECT_TRUE(differs);
}

TEST(OpenLoop, ScheduleHasTheRequestedRateAndRanges) {
  const auto s = MakeOpenLoopSchedule(3, 1000.0, 10.0, 5, 9);
  EXPECT_NEAR(static_cast<double>(s.size()), 10000.0, 300.0);
  for (size_t i = 0; i < s.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(s[i].due_ns, s[i - 1].due_ns);
    }
    EXPECT_LT(s[i].due_ns, int64_t{10'000'000'000});
    EXPECT_TRUE(s[i].device >= 0 && s[i].device < 5);
    EXPECT_TRUE(s[i].input >= 0 && s[i].input < 9);
  }
}

// A stall in the first submission delays the requests due behind it; each
// is charged from its due time, not from when it was finally sent.
TEST(OpenLoop, LatencyIsTimedFromTheDueTime) {
  std::vector<Arrival> schedule;
  for (int i = 0; i < 30; ++i) schedule.push_back({i * 1'000'000, 0, 0});
  int64_t clock = 0;
  std::vector<double> lag;
  const OpenLoopResult r = RunOpenLoop(
      schedule,
      [&](size_t i) {
        if (i == 0) clock += 20'000'000;  // a 20 ms stall
        return i != 29;                   // the last one is refused
      },
      [&] { return clock; }, [&](int64_t t) { clock = t; }, &lag);
  EXPECT_EQ(r.attempted, 30);
  EXPECT_EQ(r.refused, 1);
  ASSERT_EQ(lag.size(), 30u);
  EXPECT_DOUBLE_EQ(lag[0], 0.0);
  for (int i = 1; i <= 20; ++i) EXPECT_DOUBLE_EQ(lag[i], 20.0 - i);
  for (int i = 21; i < 30; ++i) EXPECT_DOUBLE_EQ(lag[i], 0.0);
  EXPECT_DOUBLE_EQ(LatencyFromDueMs(lag[5], 0.25, 0.5), 15.75);
}

// ---------------------------------------------------------- metric schema

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(MetricSchema, NamesAndUnitsAreValidAndUnique) {
  std::set<std::string> seen;
  for (const auto* schema : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& m : *schema) {
      EXPECT_TRUE(ValidMetricName(m.name)) << m.name;
      EXPECT_TRUE(ValidUnit(m.unit)) << m.name << " " << m.unit;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
    }
  }
  EXPECT_FALSE(ValidMetricName("p50 ms"));
  EXPECT_FALSE(ValidMetricName("_p50"));
  EXPECT_FALSE(ValidMetricName("serving/exec"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName("serving.exec_ms-p99"));
  EXPECT_FALSE(ValidUnit("milliseconds/task"));
  EXPECT_FALSE(ValidUnit("m s"));
}

// BENCHMARK.json declares exactly the metrics qbench emits.
TEST(MetricSchema, MatchesBenchmarkJson) {
  const std::string json = ReadFile(QBENCH_REPO_ROOT "/BENCHMARK.json");
  ASSERT_FALSE(json.empty());
  auto section = [&](const std::string& key) {
    const size_t start = json.find("\"" + key + "\"");
    const size_t end = json.find(']', start);
    return json.substr(start, end - start);
  };
  auto declared = [&](const std::string& key) {
    std::vector<std::pair<std::string, std::string>> out;
    const std::string s = section(key);
    const std::regex entry(
        "\"name\": \"([^\"]+)\",\\s*\"unit\": \"([^\"]+)\"");
    for (std::sregex_iterator it(s.begin(), s.end(), entry), end; it != end;
         ++it) {
      out.emplace_back((*it)[1], (*it)[2]);
    }
    return out;
  };
  auto emitted = [](const std::vector<MetricSpec>& specs) {
    std::vector<std::pair<std::string, std::string>> out;
    for (const MetricSpec& m : specs) out.emplace_back(m.name, m.unit);
    return out;
  };
  EXPECT_EQ(declared("end_to_end"), emitted(EndToEndMetrics()));
  EXPECT_EQ(declared("per_layer"), emitted(PerLayerMetrics()));
}

TEST(MetricSchema, ResultJsonRefusesAMissingMetric) {
  RunReport rep;
  rep.attempted = 3;
  for (const MetricSpec& m : EndToEndMetrics()) rep.Set(m.name, 1.5);
  std::vector<std::string> missing;
  const std::string json = ResultJson(rep, EndToEndMetrics(), &missing);
  EXPECT_TRUE(missing.empty());
  EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0", 0),
            0u);
  rep.metrics.erase("cpu_ms_per_task");
  EXPECT_TRUE(ResultJson(rep, EndToEndMetrics(), &missing).empty());
  EXPECT_EQ(missing, std::vector<std::string>{"cpu_ms_per_task"});
}

// ---------------------------------------------------------- serving stages

qcore::TraceEvent Ev(qcore::TraceKind kind, uint64_t ts_us, uint64_t span,
                     uint64_t arg1 = 0) {
  qcore::TraceEvent ev;
  ev.kind = kind;
  ev.ts_ns = ts_us * 1000;
  ev.span = span;
  ev.arg1 = arg1;
  return ev;
}

TEST(ServingStages, SplitsBatchedInferenceAndCalibration) {
  using qcore::TraceKind;
  // Requests 1 and 2 ride in group 9; calibration 5 publishes a snapshot.
  const std::vector<qcore::TraceEvent> events = {
      Ev(TraceKind::kSubmitInference, 0, 1),
      Ev(TraceKind::kBatchEnqueue, 2, 1),
      Ev(TraceKind::kSubmitInference, 10, 2),
      Ev(TraceKind::kBatchEnqueue, 11, 2),
      Ev(TraceKind::kBatchFlush, 500, 1, 9),
      Ev(TraceKind::kBatchFlush, 500, 2, 9),
      Ev(TraceKind::kExecStart, 600, 9),
      Ev(TraceKind::kComplete, 650, 1, 9),
      Ev(TraceKind::kComplete, 652, 2, 9),
      Ev(TraceKind::kExecEnd, 653, 9),
      Ev(TraceKind::kSubmitCalibration, 1000, 5),
      Ev(TraceKind::kExecStart, 1300, 5),
      Ev(TraceKind::kSnapshotPublish, 21000, 5),
      Ev(TraceKind::kWalAppend, 21100, 5, 9500),
      Ev(TraceKind::kExecEnd, 21200, 5),
      Ev(TraceKind::kComplete, 21201, 5),
  };
  const StageTimes st = ServingStages(events);
  ASSERT_EQ(st.admission.size(), 2u);
  std::vector<double> wait = st.batch_wait;
  std::sort(wait.begin(), wait.end());
  EXPECT_DOUBLE_EQ(wait[0], 0.489);
  EXPECT_DOUBLE_EQ(wait[1], 0.498);
  EXPECT_DOUBLE_EQ(st.queue_wait[0], 0.1);
  EXPECT_DOUBLE_EQ(st.exec[0], 0.05);
  std::vector<double> deliver = st.deliver;
  std::sort(deliver.begin(), deliver.end());
  EXPECT_DOUBLE_EQ(deliver[0], 0.0);
  EXPECT_DOUBLE_EQ(deliver[1], 0.002);
  ASSERT_EQ(st.calib_exec.size(), 1u);
  EXPECT_DOUBLE_EQ(st.calib_queue_wait[0], 0.3);
  EXPECT_DOUBLE_EQ(st.calib_exec[0], 19.9);
  EXPECT_DOUBLE_EQ(st.publish[0], 0.1);
  EXPECT_DOUBLE_EQ(st.wal_bytes[0], 9500.0);
}

// -------------------------------------------------------------- core layer

qcore::Dataset Rows(const std::vector<float>& values) {
  std::vector<int> labels(values.size(), 0);
  return qcore::Dataset(
      qcore::Tensor::FromVector({static_cast<int64_t>(values.size()), 1},
                                values),
      labels, 2);
}

TEST(QCoreChurn, CountsReplacedExamplesAsAMultiset) {
  EXPECT_EQ(QCoreChurn(Rows({1, 2, 3}), Rows({1, 2, 3})), 0);
  EXPECT_EQ(QCoreChurn(Rows({1, 2, 3}), Rows({3, 1, 2})), 0);
  EXPECT_EQ(QCoreChurn(Rows({1, 2, 3}), Rows({1, 2, 4})), 1);
  EXPECT_EQ(QCoreChurn(Rows({1, 2, 3}), Rows({1, 1, 2})), 1);
  EXPECT_EQ(QCoreChurn(Rows({1, 2, 3}), Rows({4, 5, 6})), 3);
}

// The traced mirror of ProcessBatch must stay bit-identical to
// ContinualDriver:
// same codes, QCore, accuracies and Rng position after every step. A change
// to ContinualDriver that the mirror does not follow fails here.
class MirrorTest : public ::testing::TestWithParam<qcore::ContinualOptions> {};

TEST_P(MirrorTest, BitIdenticalToContinualDriver) {
  static const Deployment dep = PrepareFleetDeployment();
  qcore::HarSpec spec = qcore::HarSpec::Usc();
  spec.num_classes = 8;
  spec.channels = 3;
  spec.length = 32;
  spec.train_per_class = 8;
  spec.test_per_class = 4;
  const qcore::HarDomain target = qcore::MakeHarDomain(spec, 3);
  qcore::Rng split(11);
  const auto batches = qcore::SplitIntoStreamBatches(target.train, 3, &split);
  const auto slices = qcore::SplitIntoStreamBatches(target.test, 3, &split);

  auto driver_qm = dep.base->Clone();
  qcore::BitFlipNet driver_bf = dep.bf->Clone();
  qcore::Rng driver_rng(99);
  qcore::ContinualDriver driver(driver_qm.get(), &driver_bf, dep.qcore,
                                GetParam(), &driver_rng);
  auto mirror_qm = dep.base->Clone();
  qcore::BitFlipNet mirror_bf = dep.bf->Clone();
  qcore::Rng mirror_rng(99);
  TracedStepper mirror(mirror_qm.get(), &mirror_bf, dep.qcore, GetParam(),
                       &mirror_rng);
  SpanRecorder rec;
  for (size_t b = 0; b < batches.size(); ++b) {
    const qcore::BatchStats d = driver.ProcessBatch(batches[b], slices[b]);
    const StepTrace m = mirror.Step(batches[b], slices[b], &rec);
    EXPECT_EQ(m.accuracy, d.accuracy) << "step " << b;
    EXPECT_EQ(mirror_qm->AllCodes(), driver_qm->AllCodes()) << "step " << b;
    EXPECT_EQ(mirror.qcore().labels(), driver.qcore().labels());
    EXPECT_EQ(QCoreChurn(mirror.qcore(), driver.qcore()), 0);
    EXPECT_EQ(mirror_rng.NextUint64(), driver_rng.NextUint64());
    EXPECT_GT(m.total_ms, 0.0);
  }
  // Every phase span hangs off its step's span.
  size_t steps = 0;
  for (const SpanRecorder::Span& s : rec.spans()) {
    if (s.name == "core.step") {
      ++steps;
      EXPECT_EQ(s.parent, 0u);
    } else {
      EXPECT_NE(s.parent, 0u) << s.name;
    }
    EXPECT_GE(s.end_ns, s.start_ns);
  }
  EXPECT_EQ(steps, batches.size());
}

qcore::ContinualOptions Options(int iterations, bool bitflip, bool update) {
  qcore::ContinualOptions o;
  o.iterations = iterations;
  o.use_bitflip = bitflip;
  o.use_qcore_update = update;
  return o;
}

INSTANTIATE_TEST_SUITE_P(Configs, MirrorTest,
                         ::testing::Values(Options(1, true, true),
                                           Options(3, true, true),
                                           Options(2, false, true),
                                           Options(2, true, false)));

// ------------------------------------------------------------ fleet digest

TEST(FleetDigest, OneSeedOneDigest) {
  const Deployment dep = PrepareFleetDeployment();
  RunReport rep;
  const uint64_t a = MixedVerificationDigest(dep, 5, &rep);
  const uint64_t b = MixedVerificationDigest(dep, 5, &rep);
  const uint64_t c = MixedVerificationDigest(dep, 6, &rep);
  EXPECT_TRUE(rep.correct) << (rep.errors.empty() ? "" : rep.errors[0]);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace qbench
