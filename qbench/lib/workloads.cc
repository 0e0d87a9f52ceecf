#include "qbench/lib/workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <optional>
#include <tuple>
#include <thread>
#include <utility>

#include <sched.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/rng.h"
#include "core/continual.h"
#include "core/qcore_builder.h"
#include "core/qcore_update.h"
#include "data/har_generator.h"
#include "models/model_zoo.h"
#include "obs/trace.h"
#include "qbench/lib/layers.h"
#include "runtime/parallel_for.h"
#include "serving/overload.h"
#include "serving/router.h"
#include "serving/snapshot.h"
#include "serving/snapshot_store.h"
#include "tensor/kernels.h"

namespace qbench {

using qcore::BatchStats;
using qcore::BitFlipNet;
using qcore::ContinualDriver;
using qcore::ContinualOptions;
using qcore::Dataset;
using qcore::HarDomain;
using qcore::HarSpec;
using qcore::InferenceResult;
using qcore::QuantizedModel;
using qcore::Rng;
using qcore::ShardedFleetServer;
using qcore::Tensor;

namespace {

// The server-side training seed. Fixed: the deployed model is the system's
// artefact; the workload seed varies what the devices stream and send.
constexpr uint64_t kDeploySeed = 20240422;
// Set-ups per run; setup_s is their median. The fleet set-up takes ~0.2 s,
// short enough for host noise to move one sample by half, so it repeats
// more often than the ~4 s edge set-up.
constexpr int kEdgeSetupReps = 3;
constexpr int kFleetSetupReps = 9;

constexpr double kEdgeStepSloMs = 1000.0;  // a step must fit the edge budget
// edge-calib runs this many independent devices, taking steps in turn on
// one thread. The cost of a step depends on the device's trajectory: one
// device's step cost differed by 1.28x between seeds, and the gap held over
// a whole run. Several trajectories per run average it out.
constexpr int kEdgeDevices = 8;
// Device d streams from subject 1 + (kEdgeSubjectStride * d mod 7): 1, 3,
// 5, 7, 2, 4, 6, 1.
constexpr int kEdgeSubjectStride = 2;
constexpr int kEdgeBatchesPerSubject = 10;
// avg_accuracy on edge-calib averages each device's first this many steps,
// stepping on untimed after the timed phase when the host was too slow to
// reach them, so it depends on the seed alone.
constexpr size_t kEdgeAccuracySteps = 6;
constexpr double kInferSloMs = 10.0;

// fleet_simulation's deployed configuration, with as many pool workers as
// leave one core of a 4-core host to the load generator.
constexpr int kNumShards = 2;
constexpr int kThreadsPerShard = 1;
constexpr int kMaxBatch = 4;
constexpr double kMaxDelayUs = 500.0;
constexpr int kInferQueuePerSession = 48;
constexpr int kCalibQueuePerSession = 16;

constexpr int kInferDevices = 64;
// About half the inference capacity of the deployed configuration on the
// reference host (qbench/README.md, "Workloads").
constexpr double kInferRatePerS = 14000.0;
// The open-loop client's reaction to a shed inference: waits of 50 us x
// 1.5^n (+-25% jitter), about 5 s in all before the request counts as
// failed. The 1.5 step keeps a retry from overshooting the end of a host
// stall by more than half its length.
constexpr qcore::RetryPolicy kShedRetry = {.max_attempts = 28,
                                           .base_backoff_us = 50,
                                           .multiplier = 1.5,
                                           .jitter = 0.25,
                                           .seed = 1};

constexpr int kMixedDevices = 32;
// Mean pause of a device client between the end of one step and the next.
// It keeps each shard's single worker about 15% busy on the reference host:
// every trailing inference still waits behind its own device's calibration,
// and bursts sometimes wait behind another device's, but queueing no longer
// amplifies the host's speed swings. At 25% busy the calibration p90 moved
// 30 -> 61 ms between runs whose CPU per task differed by 12%.
constexpr double kThinkMs = 4000.0;
constexpr int kBurst = 4;               // inferences ahead of a calibration
constexpr int kMixedStreamBatches = 4;  // per device, cycled
constexpr int kReferenceDevices = 4;    // replayed with ContinualDriver
constexpr int kVerifyDevices = 4;       // untimed digest phase
constexpr int kVerifySteps = 3;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  return qcore::SplitMix64Mix(seed ^ qcore::SplitMix64Mix(salt + 1));
}

template <typename T>
bool Ready(const std::future<T>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

double ElapsedS(int64_t start_ns) {
  return static_cast<double>(SteadyNowNs() - start_ns) / 1e9;
}

// ------------------------------------------------------------- deployment

struct DeployConfig {
  HarSpec spec;
  bool inception = false;  // InceptionTime, else OmniScaleCNN
  qcore::QCoreBuildOptions build;
  qcore::BitFlipTrainOptions bft;
};

// The paper's runtime protocol (Table 9): DSA-like, InceptionTime, 4-bit,
// QCore 30, the time-series training budgets of the paper benches.
DeployConfig EdgeConfig() {
  DeployConfig c;
  c.spec = HarSpec::Dsa();
  c.inception = true;
  c.build.size = 30;
  c.build.train = {.epochs = 15,
                   .batch_size = 32,
                   .sgd = {.lr = 0.02f, .momentum = 0.9f, .weight_decay = 0.0f},
                   .on_epoch = nullptr};
  c.bft.ste.epochs = 30;
  c.bft.ste.batch_size = 16;
  c.bft.ste.sgd.lr = 0.01f;
  c.bft.augment_episodes = 3;
  return c;
}

HarSpec FleetSpec() {
  HarSpec spec = HarSpec::Usc();
  spec.num_classes = 8;
  spec.channels = 3;
  spec.length = 32;
  spec.train_per_class = 8;
  spec.test_per_class = 4;
  return spec;
}

// fleet_simulation's HAR deployment.
DeployConfig FleetConfig() {
  DeployConfig c;
  c.spec = FleetSpec();
  c.build.size = 20;
  c.build.train.epochs = 10;
  c.build.train.sgd.lr = 0.03f;
  c.bft.ste.epochs = 10;
  c.bft.ste.batch_size = 16;
  c.bft.augment_episodes = 1;
  return c;
}

Deployment Prepare(const DeployConfig& c) {
  HarDomain source = qcore::MakeHarDomain(c.spec, 0);
  Rng rng(kDeploySeed);
  auto model =
      c.inception
          ? qcore::MakeInceptionTime(c.spec.channels, c.spec.num_classes, &rng)
          : qcore::MakeOmniScaleCnn(c.spec.channels, c.spec.num_classes, &rng);
  qcore::QCoreBuildResult built =
      qcore::BuildQCore(model.get(), source.train, c.build, &rng);
  Deployment d;
  d.qcore = built.qcore;
  d.base = std::make_unique<QuantizedModel>(*model, 4);
  d.bf = std::make_unique<BitFlipNet>(
      qcore::TrainBitFlipNet(d.base.get(), d.qcore, c.bft, &rng));
  d.base->DropShadows();
  return d;
}

// ---------------------------------------------------------------- checks

bool SameDataset(const Dataset& a, const Dataset& b) {
  return a.labels() == b.labels() && a.x().shape() == b.x().shape() &&
         std::equal(a.x().data(), a.x().data() + a.x().size(), b.x().data());
}

bool SameRng(const Rng& a, const Rng& b) {
  const Rng::State x = a.SaveState();
  const Rng::State y = b.SaveState();
  return std::equal(x.s, x.s + 4, y.s) &&
         x.has_cached_gaussian == y.has_cached_gaussian &&
         x.cached_gaussian == y.cached_gaussian;
}

// ------------------------------------------------------------- reporting

void Line(const std::string& workload, const std::string& text) {
  std::printf("qbench %s: %s\n", workload.c_str(), text.c_str());
}

void PrintMetric(const std::string& workload, const std::string& name,
                 double value, const std::string& unit,
                 const std::string& note = "") {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-36s = %.6g %s%s%s", name.c_str(), value,
                unit.c_str(), note.empty() ? "" : "  ", note.c_str());
  Line(workload, buf);
}

std::string SetupNote(const std::vector<double>& samples) {
  std::string note = "(median of";
  for (double s : samples) note += " " + std::to_string(s);
  return note + ")";
}

// The CPU's brand string, from CPUID (no file outside the checkout is read).
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                    &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
#else
  return "unknown";
#endif
}

// Lines of src/ (.h/.cc), the size trajectory ROADMAP tracks.
int64_t SrcLines() {
  namespace fs = std::filesystem;
  std::error_code ec;
  int64_t lines = 0;
  for (fs::recursive_directory_iterator it("src", ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string ext = it->path().extension().string();
    if (!it->is_regular_file() || (ext != ".h" && ext != ".cc")) continue;
    std::ifstream in(it->path());
    lines += std::count(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>(), '\n');
  }
  return lines;
}

void PrintContext(const RunOptions& o, uint64_t digest) {
#ifdef __clang__
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
#ifdef QBENCH_BUILD_TYPE
  const char* build_type = QBENCH_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
  char steal[32] = "null";
  const double share = HostStealShare();
  if (!std::isnan(share)) std::snprintf(steal, sizeof(steal), "%.4f", share);
  std::printf(
      "qbench context: {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace_run\": %s, \"cpu\": \"%s\", \"nproc\": %u, "
      "\"gemm_threads\": %d, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"trace_ring_enabled\": %s, \"src_lines\": %lld, "
      "\"codes_digest\": \"%016llx\", \"host_steal_share\": %s}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? "true" : "false", CpuModel().c_str(),
      std::thread::hardware_concurrency(), qcore::kernels::gemm_threads(),
      build_type, compiler,
      qcore::TraceRing::Global().enabled() ? "true" : "false",
      static_cast<long long>(SrcLines()),
      static_cast<unsigned long long>(digest), steal);
}

// Per-layer metrics start at 0: a layer a workload does not exercise
// reports no work.
void ZeroPerLayer(RunReport* rep) {
  for (const MetricSpec& m : PerLayerMetrics()) rep->Set(m.name, 0.0);
}

void SetLeafReplay(const LeafReplay& r, RunReport* rep) {
  rep->Set("nn.forward_rows_per_s", r.rows_per_s);
  rep->Set("nn.conv_ms", r.conv_ms);
  rep->Set("nn.dense_ms", r.dense_ms);
  rep->Set("nn.other_ms", r.other_ms);
  rep->Set("tensor.conv_gemm_ms", r.conv_gemm_ms);
  rep->Set("tensor.conv_lowering_ms", std::max(0.0, r.conv_ms - r.conv_gemm_ms));
}

void SetStepTraces(const std::vector<StepTrace>& traces, RunReport* rep) {
  if (traces.empty()) return;
  double pool = 0, fwd = 0, bf = 0, res = 0, eval = 0, churn = 0;
  int64_t calls = 0, codes = 0, changed = 0, seen = 0;
  for (const StepTrace& t : traces) {
    pool += t.pool_ms;
    fwd += t.forward_ms;
    bf += t.bitflip_ms;
    res += t.resample_ms;
    eval += t.eval_ms;
    calls += t.bitflip_calls;
    codes += t.codes_changed;
    changed += t.tensors_changed;
    seen += t.tensors_seen;
    churn += t.qcore_churn;
  }
  const double n = static_cast<double>(traces.size());
  rep->Set("core.pool_ms", pool / n);
  rep->Set("core.forward_ms", fwd / n);
  rep->Set("core.bitflip_ms", bf / n);
  rep->Set("core.resample_ms", res / n);
  rep->Set("core.eval_ms", eval / n);
  rep->Set("core.bitflip_codes_changed",
           calls > 0 ? static_cast<double>(codes) / calls : 0.0);
  rep->Set("core.bitflip_tensors_changed_share",
           seen > 0 ? static_cast<double>(changed) / seen : 0.0);
  rep->Set("core.qcore_churn", churn / n);
}

void PrintPerLayer(const std::string& workload, const RunReport& rep) {
  for (const MetricSpec& m : PerLayerMetrics()) {
    PrintMetric(workload, m.name, rep.metrics.at(m.name), m.unit);
  }
}

void WriteSpans(const RunOptions& o, const SpanRecorder& rec) {
  const std::string path = o.scratch_dir + "/trace-" + o.workload + "-" +
                            std::to_string(o.seed) + ".json";
  if (rec.WriteChromeJson(path)) {
    Line(o.workload, "benchmark spans (" + std::to_string(rec.spans().size()) +
                         ") written to " + path);
  }
}

// ------------------------------------------------------------ edge-calib

// Successive shifted subject domains (subjects first, first + 1, ... of
// 1..num_subjects-1 in order, then again with fresh splits), each split into
// the paper's stream batches. The seed draws the splits; the subject order
// is fixed because step cost depends on the subject (up to 1.4x between DSA
// subjects).
class SubjectStream {
 public:
  SubjectStream(HarSpec spec, uint64_t seed, int first_subject,
                int batches_per_subject)
      : spec_(std::move(spec)),
        seed_(seed),
        first_(first_subject),
        per_subject_(batches_per_subject) {}

  std::pair<Dataset, Dataset> Next() {
    if (within_ >= batches_.size()) Advance();
    const size_t i = within_++;
    return {batches_[i], slices_[i]};
  }

 private:
  void Advance() {
    const uint64_t streams = next_stream_++;
    const uint64_t cycle = static_cast<uint64_t>(spec_.num_subjects - 1);
    const int subject = 1 + static_cast<int>(
                                (static_cast<uint64_t>(first_ - 1) + streams) %
                                cycle);
    HarDomain target = qcore::MakeHarDomain(spec_, subject);
    Rng split(Mix(seed_, 1000 + streams));
    batches_ = qcore::SplitIntoStreamBatches(target.train, per_subject_, &split);
    slices_ = qcore::SplitIntoStreamBatches(target.test, per_subject_, &split);
    within_ = 0;
  }

  HarSpec spec_;
  uint64_t seed_;
  int first_;
  int per_subject_;
  uint64_t next_stream_ = 0;
  std::vector<Dataset> batches_, slices_;
  size_t within_ = 0;
};

// One edge device: its own copy of the deployed model and bit-flip net, its
// Rng, subject stream and ContinualDriver, seeded from the workload seed and
// the device's index.
struct EdgeDevice {
  EdgeDevice(const Deployment& dep, const HarSpec& spec,
             const ContinualOptions& copts, uint64_t seed, int index)
      : qm(dep.base->Clone()),
        bf(dep.bf->Clone()),
        rng(Mix(seed, 10 + static_cast<uint64_t>(index))),
        stream(spec, Mix(seed, 20 + static_cast<uint64_t>(index)),
               1 + (kEdgeSubjectStride * index) % (spec.num_subjects - 1),
               kEdgeBatchesPerSubject),
        driver(qm.get(), &bf, dep.qcore, copts, &rng) {}
  // `driver` keeps pointers to qm, bf and rng.
  EdgeDevice(const EdgeDevice&) = delete;
  EdgeDevice& operator=(const EdgeDevice&) = delete;

  std::unique_ptr<QuantizedModel> qm;
  BitFlipNet bf;
  Rng rng;
  SubjectStream stream;
  ContinualDriver driver;
  std::vector<double> accuracy;  // per timed step
  // Traced runs: the state after the check step, from which the mirror
  // replays the timed steps, and those steps' inputs.
  std::unique_ptr<QuantizedModel> mirror_qm;
  std::optional<BitFlipNet> mirror_bf;
  Rng mirror_rng{0};
  Dataset mirror_qcore;
  std::vector<std::pair<Dataset, Dataset>> replay;
};

// Moves the calling thread over the CPUs the process may use, and gives it
// back its original set on Unpin or when destroyed. A shared host's cores
// run at different speeds at one time (another guest on a core's SMT
// sibling), so single-threaded work left on one core measures that core's
// neighbour; moving it between repetitions samples them all. A thread
// started while this one is pinned inherits the pin: RunWorkload starts the
// runtime's helpers first, and servers are built unpinned.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() { Unpin(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Pins the thread to the i-th allowed CPU, cyclically.
  void PinTo(size_t i) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[i % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
  }

  void Unpin() {
    if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof(saved_), &saved_);
  }

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
};

// An edge-calib run's time and CPU time per step: the median over rounds
// (one step of every device, in order) of the round's total, per step, so
// a host stall that hits a few rounds does not move them. A run too short
// for one round uses its partial round.
struct PerStep {
  double step_ms = 0.0, cpu_ms = 0.0;
  size_t rounds = 0;
};

PerStep EdgePerStep(const std::vector<double>& step_ms,
                    const std::vector<double>& step_cpu_ms) {
  PerStep r;
  const size_t k = static_cast<size_t>(kEdgeDevices);
  const size_t rounds = std::max<size_t>(1, step_ms.size() / k);
  const size_t per_round = std::min(k, step_ms.size());
  std::vector<double> wall(rounds, 0.0), cpu(rounds, 0.0);
  for (size_t i = 0; i < rounds * per_round; ++i) {
    wall[i / per_round] += step_ms[i];
    cpu[i / per_round] += step_cpu_ms[i];
  }
  r.step_ms = Quantile(wall, 0.5) / static_cast<double>(per_round);
  r.cpu_ms = Quantile(cpu, 0.5) / static_cast<double>(per_round);
  r.rounds = rounds;
  return r;
}

RunReport RunEdgeCalib(const RunOptions& o) {
  const std::string w = o.workload;
  RunReport rep;
  const DeployConfig cfg = EdgeConfig();

  // Each set-up, and each timed step below, runs on the next CPU.
  CpuRotation rotation;
  std::vector<double> setup_s;
  Deployment dep;
  uint64_t setup_digest = 0;
  for (int r = 0; r < kEdgeSetupReps; ++r) {
    rotation.PinTo(static_cast<size_t>(r));
    const int64_t t0 = SteadyNowNs();
    dep = Prepare(cfg);
    setup_s.push_back(ElapsedS(t0));
    const uint64_t digest = CodesDigest(*dep.base);
    if (r == 0) setup_digest = digest;
    if (digest != setup_digest) rep.Fail("set-up is not deterministic");
  }
  rotation.Unpin();

  ContinualOptions copts;
  copts.iterations = 3;
  std::vector<std::unique_ptr<EdgeDevice>> devices;
  for (int d = 0; d < kEdgeDevices; ++d) {
    devices.push_back(
        std::make_unique<EdgeDevice>(dep, cfg.spec, copts, o.seed, d));
  }

  // Untimed check: on every device the traced mirror and ContinualDriver
  // take one step from the same state and must agree bit for bit.
  uint64_t digest = 0;
  for (const auto& dev : devices) {
    auto [batch, slice] = dev->stream.Next();
    auto qm = dev->qm->Clone();
    BitFlipNet bf = dev->bf.Clone();
    Rng mirror_rng = dev->rng;
    TracedStepper mirror(qm.get(), &bf, dev->driver.qcore(), copts,
                         &mirror_rng);
    const StepTrace m = mirror.Step(batch, slice, nullptr);
    const BatchStats d = dev->driver.ProcessBatch(batch, slice);
    if (qm->AllCodes() != dev->qm->AllCodes() ||
        !SameDataset(mirror.qcore(), dev->driver.qcore()) ||
        !SameRng(mirror_rng, dev->rng) || m.accuracy != d.accuracy) {
      rep.Fail("edge-calib: traced mirror and ContinualDriver disagree");
      ++rep.failed;
    }
    digest = CodesDigest(*dev->qm, digest);
    if (o.trace) {
      dev->mirror_qm = dev->qm->Clone();
      dev->mirror_bf.emplace(dev->bf.Clone());
      dev->mirror_rng = dev->rng;
      dev->mirror_qcore = dev->driver.qcore();
    }
  }

  // The devices take steps in turn; a round is one step of each. Step i of
  // round r runs on CPU i + r (cyclically), so every device visits every
  // CPU.
  const double phase_s = o.trace ? o.seconds / 2 : o.seconds;
  std::vector<double> step_ms, step_cpu_ms;
  const auto gemm0 = qcore::kernels::ThreadGemmDispatchCounters();
  const qcore::ParallelForStats pf0 = qcore::GetParallelForStats();
  const double cpu0 = ProcessCpuMs();
  const int64_t start = SteadyNowNs();
  const int64_t deadline = start + static_cast<int64_t>(phase_s * 1e9);
  for (size_t i = 0; i == 0 || SteadyNowNs() < deadline; ++i) {
    EdgeDevice& dev = *devices[i % devices.size()];
    auto [batch, slice] = dev.stream.Next();
    rotation.PinTo(i + i / devices.size());
    const double c0 = ProcessCpuMs();
    const int64_t t0 = SteadyNowNs();
    const BatchStats st = dev.driver.ProcessBatch(batch, slice);
    step_ms.push_back(static_cast<double>(SteadyNowNs() - t0) / 1e6);
    step_cpu_ms.push_back(ProcessCpuMs() - c0);
    dev.accuracy.push_back(st.accuracy);
    if (o.trace) dev.replay.emplace_back(std::move(batch), std::move(slice));
  }
  const double elapsed = ElapsedS(start);
  const double cpu_ms = ProcessCpuMs() - cpu0;
  rotation.Unpin();
  const auto gemm1 = qcore::kernels::ThreadGemmDispatchCounters();
  const qcore::ParallelForStats pf1 = qcore::GetParallelForStats();
  const double steps = static_cast<double>(step_ms.size());
  // + the check steps
  rep.attempted = static_cast<int64_t>(step_ms.size()) + kEdgeDevices;

  PrintContext(o, digest);
  const Summary s = Summarize(step_ms, 0.90);
  if (!o.trace) {
    int64_t within = 0;
    for (double ms : step_ms) within += ms <= kEdgeStepSloMs ? 1 : 0;
    std::vector<double> accuracy;
    for (const auto& dev : devices) {
      while (dev->accuracy.size() < kEdgeAccuracySteps) {
        auto [batch, slice] = dev->stream.Next();
        dev->accuracy.push_back(dev->driver.ProcessBatch(batch, slice).accuracy);
      }
      accuracy.insert(accuracy.end(), dev->accuracy.begin(),
                      dev->accuracy.begin() + kEdgeAccuracySteps);
    }
    const PerStep per = EdgePerStep(step_ms, step_cpu_ms);
    rep.Set("setup_s", Quantile(setup_s, 0.5));
    rep.Set("tasks_per_s", 1e3 / per.step_ms);
    rep.Set("cpu_ms_per_task", per.cpu_ms);
    rep.Set("slo_attainment", static_cast<double>(within) / steps);
    rep.Set("avg_accuracy", Mean(accuracy));
    rep.Set("edge_state_kib", dep.EdgeStateKib());
    rep.Set("peak_rss_mb", PeakRssMb());
    rep.Set("completed_share",
            static_cast<double>(rep.attempted - rep.failed) / rep.attempted);
    PrintMetric(w, "setup_s", rep.metrics["setup_s"], "s", SetupNote(setup_s));
    PrintMetric(w, "calib_step_ms_p50", s.p50, "ms",
                "(n=" + std::to_string(s.n) + ")");
    PrintMetric(w, "calib_step_ms_p90", s.tail, "ms", TailNote(s, 0.90));
    PrintMetric(w, "avg_accuracy", Mean(accuracy), "ratio");
    PrintMetric(w, "edge_state_kib", dep.EdgeStateKib(), "KiB");
    PrintMetric(w, "peak_rss_mb", PeakRssMb(), "MiB");
    PrintMetric(w, "failed_share",
                static_cast<double>(rep.failed) / rep.attempted, "ratio");
    PrintMetric(w, "steps_per_s", 1e3 / per.step_ms, "1/s",
                "(median of " + std::to_string(per.rounds) + " rounds)");
    PrintMetric(w, "cpu_ms_per_step", per.cpu_ms, "ms",
                "(median of " + std::to_string(per.rounds) + " rounds)");
    PrintMetric(w, "steps_per_s_elapsed", steps / elapsed, "1/s");
    PrintMetric(w, "cpu_ms_per_step_mean", cpu_ms / steps, "ms");
    return rep;
  }

  // Traced phase: the same steps, in the same order, through each device's
  // mirror, a span per phase.
  ZeroPerLayer(&rep);
  SpanRecorder rec;
  std::vector<std::unique_ptr<TracedStepper>> mirrors;
  for (const auto& dev : devices) {
    mirrors.push_back(std::make_unique<TracedStepper>(
        dev->mirror_qm.get(), &*dev->mirror_bf, dev->mirror_qcore, copts,
        &dev->mirror_rng));
  }
  std::vector<StepTrace> traces;
  std::vector<double> traced_ms;
  for (size_t i = 0; i < step_ms.size(); ++i) {
    const size_t d = i % devices.size();
    const size_t k = i / devices.size();
    const EdgeDevice& dev = *devices[d];
    traces.push_back(
        mirrors[d]->Step(dev.replay[k].first, dev.replay[k].second, &rec));
    traced_ms.push_back(traces.back().total_ms);
    if (traces.back().accuracy != static_cast<float>(dev.accuracy[k])) {
      rep.Fail("edge-calib: mirror accuracy differs from ContinualDriver's at "
               "step " + std::to_string(i));
      ++rep.failed;
    }
  }
  for (size_t d = 0; d < devices.size(); ++d) {
    const EdgeDevice& dev = *devices[d];
    if (dev.mirror_qm->AllCodes() != dev.qm->AllCodes() ||
        !SameDataset(mirrors[d]->qcore(), dev.driver.qcore()) ||
        !SameRng(dev.mirror_rng, dev.rng)) {
      rep.Fail("edge-calib: traced mirror's final state differs from the "
               "ContinualDriver's on device " + std::to_string(d));
    }
  }
  SetStepTraces(traces, &rep);
  const double gemm_calls =
      static_cast<double>((gemm1.wide - gemm0.wide) + (gemm1.narrow - gemm0.narrow));
  rep.Set("tensor.gemm_calls_per_step", gemm_calls / steps);
  rep.Set("tensor.gemm_wide_share",
          gemm_calls > 0 ? static_cast<double>(gemm1.wide - gemm0.wide) /
                               gemm_calls
                         : 0.0);
  rep.Set("runtime.parallel_for_wide_calls",
          static_cast<double>(pf1.wide_calls - pf0.wide_calls) / steps);
  rep.Set("runtime.parallel_for_busy_calls",
          static_cast<double>(pf1.busy_calls - pf0.busy_calls) / steps);

  // Leaf replay on a validation-forward-sized input (trial_rows of a pool).
  {
    EdgeDevice& dev = *devices[0];
    Rng pool_rng(Mix(o.seed, 2));
    const Dataset pool = qcore::MakeUpdatePool(dev.driver.qcore(),
                                               dev.stream.Next().first, &pool_rng);
    std::vector<int> rows;
    for (int i = 0; i < std::min(pool.size(), copts.bf.trial_rows); ++i) {
      rows.push_back(i);
    }
    SetLeafReplay(ReplayLeaves(*dev.qm, pool.x().GatherRows(rows), 15, &rec),
                  &rep);
  }
  rep.Set("client.p50_ms", s.p50);
  rep.Set("obs.trace_overhead", Quantile(traced_ms, 0.5) / s.p50);
  rep.Set("obs.trace_dropped_events",
          static_cast<double>(qcore::TraceRing::Global().dropped_events()));
  PrintPerLayer(w, rep);
  WriteSpans(o, rec);
  return rep;
}

// ----------------------------------------------------------------- fleets

// The devices' data: per subject, its domain and its test rows as
// single-row inference inputs.
struct FleetData {
  HarSpec spec = FleetSpec();
  std::map<int, HarDomain> domains;
  std::map<int, std::vector<Tensor>> rows;

  const HarDomain& Domain(int subject) {
    auto it = domains.find(subject);
    if (it == domains.end()) {
      it = domains.emplace(subject, qcore::MakeHarDomain(spec, subject)).first;
      const Dataset& test = it->second.test;
      for (int r = 0; r < test.size(); ++r) {
        rows[subject].push_back(test.x().GatherRows({r}));
      }
    }
    return it->second;
  }
  int RowsPerSubject() const { return spec.num_classes * spec.test_per_class; }
};

int DeviceSubject(uint64_t seed, int device, int num_subjects) {
  return 1 + static_cast<int>((static_cast<uint64_t>(device) + Mix(seed, 3)) %
                              static_cast<uint64_t>(num_subjects - 1));
}

qcore::ShardedFleetServerOptions DeployedOptions(uint64_t fleet_seed,
                                                 bool publish_every_batch) {
  qcore::FleetServerOptions shard;
  shard.num_threads = kThreadsPerShard;
  shard.continual.iterations = 1;
  shard.seed = fleet_seed;
  shard.snapshot_every = publish_every_batch ? 1 : 0;
  shard.enable_batching = true;
  shard.batching.max_batch = kMaxBatch;
  shard.batching.max_delay_us = kMaxDelayUs;
  shard.max_inference_queue_per_session = kInferQueuePerSession;
  shard.max_calibration_queue_per_session = kCalibQueuePerSession;
  qcore::ShardedFleetServerOptions opts;
  opts.num_shards = kNumShards;
  opts.shard = shard;
  return opts;
}

ContinualOptions FleetContinualOptions() {
  return DeployedOptions(0, false).shard.continual;
}

// A server and, for fleet-mixed, the WAL-backed registry it publishes to.
// Declaration order makes the server go first.
struct Fleet {
  std::unique_ptr<qcore::SnapshotRegistry> registry;
  std::unique_ptr<ShardedFleetServer> server;
  std::vector<std::string> ids;
};

std::unique_ptr<qcore::SnapshotRegistry> OpenWalRegistry(
    const std::string& path) {
  std::filesystem::remove(path);
  qcore::DurableSnapshotStoreOptions opts;
  opts.path = path;
  opts.fsync_on_publish = false;
  auto store = qcore::DurableSnapshotStore::Open(opts);
  QCORE_CHECK_MSG(store.ok(), "qbench: cannot open the snapshot WAL");
  return std::make_unique<qcore::SnapshotRegistry>(
      std::unique_ptr<qcore::SnapshotStore>(std::move(store).value()));
}

// Set-up, kFleetSetupReps times: prepare the deployment, construct the server
// (and WAL registry), register every device. Keeps the last.
void SetUpFleet(int devices, uint64_t fleet_seed, const std::string& wal_path,
                Deployment* dep, Fleet* fleet, std::vector<double>* setup_s,
                RunReport* rep) {
  uint64_t first_digest = 0;
  // The training part of each set-up runs on the next CPU (CpuRotation);
  // the server's threads start unpinned.
  CpuRotation rotation;
  for (int r = 0; r < kFleetSetupReps; ++r) {
    fleet->server.reset();
    fleet->registry.reset();
    fleet->ids.clear();
    const int64_t t0 = SteadyNowNs();
    rotation.PinTo(static_cast<size_t>(r));
    *dep = PrepareFleetDeployment();
    rotation.Unpin();
    if (!wal_path.empty()) fleet->registry = OpenWalRegistry(wal_path);
    fleet->server = std::make_unique<ShardedFleetServer>(
        *dep->base, *dep->bf, DeployedOptions(fleet_seed, !wal_path.empty()),
        fleet->registry.get());
    for (int d = 0; d < devices; ++d) {
      fleet->ids.push_back("dev-" + std::to_string(d));
      fleet->server->RegisterDevice(fleet->ids.back(), dep->qcore);
    }
    setup_s->push_back(ElapsedS(t0));
    const uint64_t digest = CodesDigest(*dep->base);
    if (r == 0) first_digest = digest;
    if (digest != first_digest) rep->Fail("set-up is not deterministic");
  }
}

// Per-subject labels the base model predicts for every test row, from a
// direct PredictBatched.
std::map<int, std::vector<int>> BasePredictions(const Deployment& dep,
                                                FleetData* data,
                                                const std::vector<int>& subjects) {
  std::map<int, std::vector<int>> out;
  auto model = dep.base->Clone();
  for (int subject : subjects) {
    if (out.count(subject) != 0) continue;
    data->Domain(subject);
    std::vector<const Tensor*> inputs;
    for (const Tensor& t : data->rows[subject]) inputs.push_back(&t);
    for (const auto& labels : model->PredictBatched(inputs)) {
      out[subject].push_back(labels.at(0));
    }
  }
  return out;
}

struct ServingCounters {
  uint64_t occ_count = 0;
  double occ_sum = 0.0;
  uint64_t barrier = 0, shed = 0, wide = 0, narrow = 0, calibs = 0;
  qcore::ParallelForStats pf;

  static ServingCounters Read(const qcore::ServingMetrics& m) {
    ServingCounters c;
    c.occ_count = m.batch_occupancy().count();
    c.occ_sum = m.batch_occupancy().mean() * static_cast<double>(c.occ_count);
    c.barrier = m.barrier_flushes();
    c.shed = m.shed_inference() + m.shed_calibration() + m.shed_deadline();
    c.wide = m.panel_wide_dispatches();
    c.narrow = m.panel_narrow_dispatches();
    c.calibs = m.calibration_batches();
    c.pf = qcore::GetParallelForStats();
    return c;
  }
};

// serving.*, tensor.* and runtime.* of a traced fleet phase.
void SetServingLayers(const ServingCounters& a, const ServingCounters& b,
                      int64_t attempted, int64_t tasks, RunReport* rep) {
  const StageTimes st = ServingStages(qcore::TraceRing::Global().Collect());
  auto q = [](const std::vector<double>& v, double p) {
    return v.empty() ? 0.0 : Quantile(v, p);
  };
  rep->Set("serving.admission_ms_p50", q(st.admission, 0.5));
  rep->Set("serving.admission_ms_p99", q(st.admission, 0.99));
  rep->Set("serving.batch_wait_ms_p50", q(st.batch_wait, 0.5));
  rep->Set("serving.batch_wait_ms_p99", q(st.batch_wait, 0.99));
  rep->Set("serving.queue_wait_ms_p50", q(st.queue_wait, 0.5));
  rep->Set("serving.queue_wait_ms_p99", q(st.queue_wait, 0.99));
  rep->Set("serving.exec_ms_p50", q(st.exec, 0.5));
  rep->Set("serving.exec_ms_p99", q(st.exec, 0.99));
  rep->Set("serving.deliver_ms_p50", q(st.deliver, 0.5));
  rep->Set("serving.deliver_ms_p99", q(st.deliver, 0.99));
  rep->Set("serving.calib_queue_wait_ms_p50", q(st.calib_queue_wait, 0.5));
  rep->Set("serving.calib_queue_wait_ms_p99", q(st.calib_queue_wait, 0.99));
  rep->Set("serving.calib_exec_ms_p50", q(st.calib_exec, 0.5));
  rep->Set("serving.calib_exec_ms_p99", q(st.calib_exec, 0.99));
  rep->Set("serving.publish_ms", q(st.publish, 0.5));
  rep->Set("serving.wal_bytes", Mean(st.wal_bytes));
  const uint64_t batches = b.occ_count - a.occ_count;
  rep->Set("serving.batch_occupancy",
           batches > 0 ? (b.occ_sum - a.occ_sum) / batches : 0.0);
  const uint64_t calibs = b.calibs - a.calibs;
  rep->Set("serving.barrier_flushes",
           calibs > 0 ? static_cast<double>(b.barrier - a.barrier) / calibs
                      : 0.0);
  rep->Set("serving.shed_share",
           attempted > 0 ? static_cast<double>(b.shed - a.shed) / attempted
                         : 0.0);
  const double gemms = static_cast<double>((b.wide - a.wide) +
                                           (b.narrow - a.narrow));
  const double t = static_cast<double>(std::max<int64_t>(1, tasks));
  rep->Set("tensor.gemm_calls_per_step", gemms / t);
  rep->Set("tensor.gemm_wide_share",
           gemms > 0 ? static_cast<double>(b.wide - a.wide) / gemms : 0.0);
  rep->Set("runtime.parallel_for_wide_calls",
           static_cast<double>(b.pf.wide_calls - a.pf.wide_calls) / t);
  rep->Set("runtime.parallel_for_busy_calls",
           static_cast<double>(b.pf.busy_calls - a.pf.busy_calls) / t);
  rep->Set("obs.trace_dropped_events",
           static_cast<double>(qcore::TraceRing::Global().dropped_events()));
}

// ----------------------------------------------------------- fleet-infer

struct InferPhase {
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  int64_t attempted = 0, failed = 0, delivered = 0, within_slo = 0;
  int64_t label_hits = 0, shed_retries = 0;
  double cpu_ms = 0.0;
};

RunReport RunFleetInfer(const RunOptions& o) {
  const std::string w = o.workload;
  RunReport rep;
  Deployment dep;
  Fleet fleet;
  std::vector<double> setup_s;
  SetUpFleet(kInferDevices, Mix(o.seed, 4), "", &dep, &fleet, &setup_s, &rep);

  FleetData data;
  std::vector<int> subject(kInferDevices);
  for (int d = 0; d < kInferDevices; ++d) {
    subject[static_cast<size_t>(d)] =
        DeviceSubject(o.seed, d, data.spec.num_subjects);
  }
  const auto expected = BasePredictions(dep, &data, subject);
  const uint64_t base_digest = CodesDigest(*dep.base);
  uint64_t digest = base_digest;
  for (const auto& [s, labels] : expected) {
    digest = Fnv1a(labels.data(), labels.size() * sizeof(int), digest);
  }

  auto run_phase = [&](uint64_t schedule_seed, double seconds,
                       SpanRecorder* rec) {
    InferPhase ph;
    const auto schedule = MakeOpenLoopSchedule(
        schedule_seed, kInferRatePerS, seconds, kInferDevices,
        data.RowsPerSubject());
    // Accepted requests in submission order; delivered ones are collected
    // from the front as the run goes, so memory stays flat.
    std::deque<std::pair<size_t, std::future<InferenceResult>>> pending;
    std::vector<double> lag_ms;
    std::vector<double> submit_ms(schedule.size(), 0.0);
    int reported = 0;
    auto collect = [&](size_t i, std::future<InferenceResult> fut) {
      const InferenceResult r = fut.get();
      if (!r.status.ok()) {
        ++ph.failed;
        return;
      }
      const Arrival& a = schedule[i];
      const int s = subject[static_cast<size_t>(a.device)];
      const int want = expected.at(s)[static_cast<size_t>(a.input)];
      if (r.predictions != std::vector<int>{want}) {
        ++ph.failed;
        if (reported++ < 5) {
          rep.Fail("fleet-infer: request " + std::to_string(i) +
                   " delivered a prediction that differs from PredictBatched");
        }
        return;
      }
      const double ms = LatencyFromDueMs(lag_ms[i], submit_ms[i],
                                         r.latency_seconds * 1e3);
      ph.latency_ms.push_back(ms);
      ++ph.delivered;
      ph.within_slo += ms <= kInferSloMs ? 1 : 0;
      ph.label_hits +=
          want == data.Domain(s).test.labels()[static_cast<size_t>(a.input)]
              ? 1
              : 0;
    };
    const double cpu0 = ProcessCpuMs();
    const OpenLoopResult loop = RunOpenLoop(
        schedule,
        [&](size_t i) {
          // The generator measured lag_ms[i] just before this call; the
          // client's own clock covers the span and the submit call, in
          // which admission runs before the server starts its clock.
          const int64_t t0 = SteadyNowNs();
          const Arrival& a = schedule[i];
          const int s = subject[static_cast<size_t>(a.device)];
          // A shed request (its device's queue is full: the host stalled the
          // workers) is retried with the serving plane's client backoff; the
          // wait counts in its latency and delays the requests after it.
          qcore::RetryPolicy retry = kShedRetry;
          retry.seed = Mix(schedule_seed, i);
          bool accepted = false;
          {
            ScopedSpan span(rec, "client.submit_inference");
            const qcore::Status st = qcore::RetryWithBackoff(retry, [&] {
              auto r = fleet.server->TrySubmitInference(
                  fleet.ids[static_cast<size_t>(a.device)],
                  data.rows[s][static_cast<size_t>(a.input)]);
              if (!r.ok()) {
                ph.shed_retries +=
                    r.status().code() == qcore::StatusCode::kResourceExhausted;
                return r.status();
              }
              pending.emplace_back(i, std::move(r).value());
              return qcore::Status::OK();
            });
            submit_ms[i] = static_cast<double>(SteadyNowNs() - t0) / 1e6;
            accepted = st.ok();
          }
          // Delivered requests are checked after the submission: that work
          // falls outside this request's latency and shows as the next
          // request's lag.
          while (!pending.empty() && Ready(pending.front().second)) {
            collect(pending.front().first, std::move(pending.front().second));
            pending.pop_front();
          }
          return accepted;
        },
        nullptr, nullptr, &lag_ms);
    ph.attempted = loop.attempted;
    ph.failed = loop.refused;
    ph.lag_ms = lag_ms;
    for (auto& [i, fut] : pending) collect(i, std::move(fut));
    fleet.server->Drain();
    ph.cpu_ms = ProcessCpuMs() - cpu0;
    return ph;
  };

  const double phase_s = o.trace ? o.seconds / 2 : o.seconds;
  const InferPhase a = run_phase(Mix(o.seed, 5), phase_s, nullptr);
  InferPhase b;
  SpanRecorder rec;
  ServingCounters c0, c1;
  if (o.trace) {
    qcore::TraceRing::Global().Clear();
    c0 = ServingCounters::Read(fleet.server->metrics());
    b = run_phase(Mix(o.seed, 6), phase_s, &rec);
    c1 = ServingCounters::Read(fleet.server->metrics());
  }

  // No calibration ran: every device still holds the base model's codes.
  for (const std::string& id : fleet.ids) {
    fleet.server->WithSessionQuiesced(id, [&](qcore::CalibrationSession& s) {
      if (CodesDigest(*s.model()) != base_digest) {
        rep.Fail("fleet-infer: " + id + " codes changed without calibration");
      }
    });
  }
  rep.attempted = a.attempted + b.attempted;
  rep.failed = a.failed + b.failed;

  PrintContext(o, digest);
  const Summary s = Summarize(a.latency_ms, 0.99);
  const double attempted = static_cast<double>(a.attempted);
  if (!o.trace) {
    rep.Set("setup_s", Quantile(setup_s, 0.5));
    rep.Set("tasks_per_s", static_cast<double>(a.delivered) / phase_s);
    rep.Set("cpu_ms_per_task", a.cpu_ms / std::max<double>(1, a.delivered));
    rep.Set("slo_attainment", static_cast<double>(a.within_slo) / attempted);
    rep.Set("avg_accuracy", static_cast<double>(a.label_hits) /
                                std::max<double>(1, a.delivered));
    rep.Set("edge_state_kib", dep.EdgeStateKib());
    rep.Set("peak_rss_mb", PeakRssMb());
    rep.Set("completed_share",
            static_cast<double>(a.attempted - a.failed) / attempted);
    PrintMetric(w, "setup_s", rep.metrics["setup_s"], "s", SetupNote(setup_s));
    PrintMetric(w, "infer_p50_ms", s.p50, "ms",
                "(from due time, n=" + std::to_string(s.n) + ")");
    PrintMetric(w, "infer_p99_ms", s.tail, "ms", TailNote(s, 0.99));
    PrintMetric(w, "infer_slo_attainment", rep.metrics["slo_attainment"],
                "ratio", "(<= 10 ms)");
    PrintMetric(w, "cpu_ms_per_task", rep.metrics["cpu_ms_per_task"], "ms");
    PrintMetric(w, "failed_share",
                static_cast<double>(a.failed) / attempted, "ratio");
    PrintMetric(w, "shed_retries", static_cast<double>(a.shed_retries),
                "count");
    PrintMetric(w, "tasks_per_s", rep.metrics["tasks_per_s"], "1/s",
                "(offered " + std::to_string(kInferRatePerS) + ")");
    PrintMetric(w, "avg_accuracy", rep.metrics["avg_accuracy"], "ratio");
    PrintMetric(w, "edge_state_kib", dep.EdgeStateKib(), "KiB");
    PrintMetric(w, "peak_rss_mb", PeakRssMb(), "MiB");
    PrintMetric(w, "gen_lag_p99_ms", Quantile(a.lag_ms, 0.99), "ms");
    return rep;
  }

  ZeroPerLayer(&rep);
  SetServingLayers(c0, c1, b.attempted, b.delivered, &rep);
  {
    Tensor one = data.rows[subject[0]][0];
    SetLeafReplay(ReplayLeaves(*dep.base, one, 50, &rec), &rep);
  }
  rep.Set("client.p50_ms", s.p50);
  rep.Set("obs.trace_overhead", Quantile(b.latency_ms, 0.5) / s.p50);
  rep.Set("gen.lag_p99_ms", Quantile(b.lag_ms, 0.99));
  PrintPerLayer(w, rep);
  WriteSpans(o, rec);
  return rep;
}

// ----------------------------------------------------------- fleet-mixed

struct MixedDevice {
  std::string id;
  int index = 0;
  int subject = 0;
  std::vector<Dataset> batches, slices;
  int steps = 0;                   // steps submitted
  int calibs = 0;                  // calibrations accepted
  std::vector<int> calib_batches;  // stream batch of each, in order
  std::vector<float> accuracies;   // per completed calibration
  // The outstanding step.
  struct Pending {
    std::future<InferenceResult> fut;
    int version = 0;  // calibrations the model has absorbed when it runs
    int row = 0;
    double submit_ms = 0.0;  // the submit call, on the client's clock
  };
  bool busy = false;
  int64_t next_ns = 0;  // when the client sends its next step
  Rng think_rng{0};
  int64_t calib_submit_ns = 0;  // when the calibration's submit call began
  std::optional<std::future<BatchStats>> calib;
  bool calib_seen = false;
  std::vector<Pending> infer;
};

struct InferRecord {
  int device = 0;
  int version = 0;
  int row = 0;
  std::vector<int> predictions;
};

struct MixedPhase {
  std::vector<double> calib_ms, infer_ms, accuracy;
  int64_t attempted = 0, failed = 0, tasks = 0, infer_attempted = 0;
  int64_t infer_within_slo = 0;
  double cpu_ms = 0.0, seconds = 0.0;
};

std::vector<MixedDevice> MakeMixedDevices(uint64_t seed, int count,
                                          const std::string& prefix,
                                          FleetData* data) {
  std::vector<MixedDevice> devices(static_cast<size_t>(count));
  for (int d = 0; d < count; ++d) {
    MixedDevice& dev = devices[static_cast<size_t>(d)];
    dev.id = prefix + std::to_string(d);
    dev.index = d;
    dev.subject = DeviceSubject(seed, d, data->spec.num_subjects);
    dev.think_rng = Rng(Mix(seed, 300 + static_cast<uint64_t>(d)));
    const HarDomain& dom = data->Domain(dev.subject);
    Rng split(Mix(seed, 200 + static_cast<uint64_t>(d)));
    dev.batches =
        qcore::SplitIntoStreamBatches(dom.train, kMixedStreamBatches, &split);
    dev.slices =
        qcore::SplitIntoStreamBatches(dom.test, kMixedStreamBatches, &split);
  }
  return devices;
}

int StepRow(const MixedDevice& dev, int step, int j, int rows) {
  return (step * (kBurst + 1) + j + dev.index) % rows;
}

// Submits one step: a burst of inferences, a calibration batch, a trailing
// inference — RunFleet's per-batch arrival pattern.
void SubmitStep(qcore::FleetBackend* server, FleetData* data, MixedDevice* dev,
                MixedPhase* ph, SpanRecorder* rec) {
  ScopedSpan step(rec, "client.step");
  const int k = dev->steps++;
  const int b = k % kMixedStreamBatches;
  const int rows = data->RowsPerSubject();
  auto submit_inference = [&](int j) {
    const int row = StepRow(*dev, k, j, rows);
    ScopedSpan s(rec, "client.submit_inference", step.id());
    const int64_t t0 = SteadyNowNs();
    auto r = server->TrySubmitInference(
        dev->id, data->rows[dev->subject][static_cast<size_t>(row)]);
    const double submit_ms = static_cast<double>(SteadyNowNs() - t0) / 1e6;
    ++ph->attempted;
    ++ph->infer_attempted;
    if (!r.ok()) {
      ++ph->failed;
      return;
    }
    dev->infer.push_back({std::move(r).value(), dev->calibs, row, submit_ms});
  };
  for (int j = 0; j < kBurst; ++j) submit_inference(j);
  {
    ScopedSpan s(rec, "client.submit_calibration", step.id());
    dev->calib_submit_ns = SteadyNowNs();
    auto c = server->TrySubmitCalibration(
        dev->id, dev->batches[static_cast<size_t>(b)],
        dev->slices[static_cast<size_t>(b)]);
    ++ph->attempted;
    if (c.ok()) {
      dev->calib = std::move(c).value();
      dev->calib_batches.push_back(b);
      ++dev->calibs;
    } else {
      ++ph->failed;
    }
  }
  submit_inference(kBurst);
  dev->busy = true;
  dev->calib_seen = !dev->calib.has_value();
}

// Collects a finished step; returns the tasks it completed.
int64_t CompleteStep(MixedDevice* dev, MixedPhase* ph,
                     std::vector<InferRecord>* records) {
  int64_t tasks = 0;
  for (MixedDevice::Pending& p : dev->infer) {
    const InferenceResult r = p.fut.get();
    if (!r.status.ok()) {
      ++ph->failed;
      continue;
    }
    // Submit call (admission included) plus the server's clock, which
    // starts inside that call and stops at delivery.
    const double ms = p.submit_ms + r.latency_seconds * 1e3;
    ph->infer_ms.push_back(ms);
    ph->infer_within_slo += ms <= kInferSloMs ? 1 : 0;
    records->push_back({dev->index, p.version, p.row, r.predictions});
    ++tasks;
  }
  dev->infer.clear();
  if (dev->calib) {
    const BatchStats st = dev->calib->get();
    dev->accuracies.push_back(st.accuracy);
    ph->accuracy.push_back(st.accuracy);
    dev->calib.reset();
    ++tasks;
  }
  dev->busy = false;
  return tasks;
}

// Closed loop with think time: each device client sends a step, waits for
// all of it, pauses kThinkMs x U[0.5, 1.5), and sends the next, until
// `seconds` have passed; then the outstanding steps finish. One thread; it
// polls the devices' futures and blocks briefly on one (or sleeps until
// the next client is due) when nothing is ready.
MixedPhase RunClosedLoop(qcore::FleetBackend* server, FleetData* data,
                         std::vector<MixedDevice>* devices, double seconds,
                         SpanRecorder* rec,
                         std::vector<InferRecord>* records) {
  MixedPhase ph;
  const double cpu0 = ProcessCpuMs();
  const int64_t start = SteadyNowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  // Pause of kThinkMs x U[offset, offset + 1).
  auto think_ns = [](MixedDevice* dev, double offset) {
    return static_cast<int64_t>(kThinkMs * 1e6 *
                                (offset + dev->think_rng.NextDouble()));
  };
  for (MixedDevice& dev : *devices) {
    // First phase: clients start spread over one think time.
    if (dev.next_ns == 0) dev.next_ns = start + think_ns(&dev, 0.0);
  }
  bool submitting = true;
  for (;;) {
    const int64_t now = SteadyNowNs();
    if (submitting && now >= deadline) {
      submitting = false;
      ph.cpu_ms = ProcessCpuMs() - cpu0;
      ph.seconds = ElapsedS(start);
    }
    int64_t next_due = deadline;
    if (submitting) {
      for (MixedDevice& dev : *devices) {
        if (dev.busy) continue;
        if (dev.next_ns <= now) {
          SubmitStep(server, data, &dev, &ph, rec);
        } else {
          next_due = std::min(next_due, dev.next_ns);
        }
      }
    }
    bool any_busy = false;
    bool progress = false;
    MixedDevice* waiting = nullptr;
    for (MixedDevice& dev : *devices) {
      if (!dev.busy) continue;
      any_busy = true;
      if (!dev.calib_seen && Ready(*dev.calib)) {
        ph.calib_ms.push_back(
            static_cast<double>(SteadyNowNs() - dev.calib_submit_ns) / 1e6);
        dev.calib_seen = true;
        progress = true;
      }
      const bool done =
          dev.calib_seen &&
          std::all_of(dev.infer.begin(), dev.infer.end(),
                      [](const MixedDevice::Pending& p) { return Ready(p.fut); });
      if (done) {
        const int64_t tasks = CompleteStep(&dev, &ph, records);
        if (submitting) ph.tasks += tasks;
        dev.next_ns = SteadyNowNs() + think_ns(&dev, 0.5);
        progress = true;
      } else if (waiting == nullptr) {
        waiting = &dev;
      }
    }
    if (!any_busy && !submitting) break;
    if (progress) continue;
    if (waiting == nullptr) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::max<int64_t>(0, next_due - SteadyNowNs())));
    } else {
      const auto slice = std::min<std::chrono::nanoseconds>(
          std::chrono::microseconds(100),
          std::chrono::nanoseconds(std::max<int64_t>(0, next_due - now)));
      if (!waiting->calib_seen) {
        waiting->calib->wait_for(slice);
      } else {
        for (MixedDevice::Pending& p : waiting->infer) {
          if (!Ready(p.fut)) {
            p.fut.wait_for(slice);
            break;
          }
        }
      }
    }
  }
  return ph;
}

// Replays a device's accepted calibrations with ContinualDriver (or, when
// `traces` is set, with the traced mirror), seeded like its session.
std::unique_ptr<QuantizedModel> ReplayDevice(const Deployment& dep,
                                             uint64_t fleet_seed,
                                             const MixedDevice& dev,
                                             std::vector<float>* accuracies,
                                             std::vector<StepTrace>* traces,
                                             SpanRecorder* rec) {
  auto model = dep.base->Clone();
  BitFlipNet bf = dep.bf->Clone();
  Rng rng(qcore::DeviceSeed(fleet_seed, dev.id));
  const ContinualOptions opts = FleetContinualOptions();
  if (traces != nullptr) {
    TracedStepper mirror(model.get(), &bf, dep.qcore, opts, &rng);
    for (int b : dev.calib_batches) {
      traces->push_back(mirror.Step(dev.batches[static_cast<size_t>(b)],
                                    dev.slices[static_cast<size_t>(b)], rec));
      accuracies->push_back(traces->back().accuracy);
    }
  } else {
    ContinualDriver driver(model.get(), &bf, dep.qcore, opts, &rng);
    for (int b : dev.calib_batches) {
      accuracies->push_back(
          driver
              .ProcessBatch(dev.batches[static_cast<size_t>(b)],
                            dev.slices[static_cast<size_t>(b)])
              .accuracy);
    }
  }
  return model;
}

// Every delivered prediction against a direct PredictBatched of the model
// version it ran on (the base model, or the device's published snapshot);
// every device's final codes against its latest snapshot. Returns the
// number of wrong predictions.
int64_t VerifyMixed(const Deployment& dep, Fleet* fleet, FleetData* data,
                 const std::vector<MixedDevice>& devices,
                 std::vector<InferRecord>* records, RunReport* rep) {
  std::map<std::pair<std::string, uint64_t>,
           std::shared_ptr<const qcore::ModelSnapshot>>
      snaps;
  const auto latest = fleet->registry->Latest();
  for (uint64_t v = 1; latest != nullptr && v <= latest->version; ++v) {
    auto snap = fleet->registry->Get(v);
    if (snap != nullptr) snaps[{snap->device_id, snap->batches_seen}] = snap;
  }
  auto model_at = [&](const MixedDevice& dev, int version,
                      QuantizedModel* into) {
    if (version == 0) return true;  // `into` is a clone of the base model
    auto it = snaps.find({dev.id, static_cast<uint64_t>(version)});
    return it != snaps.end() &&
           qcore::SnapshotRegistry::RestoreInto(*it->second, into).ok();
  };

  std::sort(records->begin(), records->end(),
            [](const InferRecord& a, const InferRecord& b) {
              return std::tie(a.device, a.version) <
                     std::tie(b.device, b.version);
            });
  int64_t wrong = 0;
  for (size_t i = 0; i < records->size();) {
    size_t j = i;
    while (j < records->size() && (*records)[j].device == (*records)[i].device &&
           (*records)[j].version == (*records)[i].version) {
      ++j;
    }
    const MixedDevice& dev = devices[static_cast<size_t>((*records)[i].device)];
    auto model = dep.base->Clone();
    if (!model_at(dev, (*records)[i].version, model.get())) {
      rep->Fail("fleet-mixed: " + dev.id + " has no snapshot for version " +
                std::to_string((*records)[i].version));
      wrong += static_cast<int64_t>(j - i);
    } else {
      std::vector<const Tensor*> inputs;
      for (size_t k = i; k < j; ++k) {
        inputs.push_back(
            &data->rows[dev.subject][static_cast<size_t>((*records)[k].row)]);
      }
      const auto want = model->PredictBatched(inputs);
      for (size_t k = i; k < j; ++k) {
        if ((*records)[k].predictions != want[k - i] && wrong++ < 5) {
          rep->Fail("fleet-mixed: " + dev.id + " delivered a prediction that "
                    "differs from PredictBatched of version " +
                    std::to_string((*records)[k].version));
        }
      }
    }
    i = j;
  }

  for (const MixedDevice& dev : devices) {
    auto model = dep.base->Clone();
    if (!model_at(dev, dev.calibs, model.get())) {
      rep->Fail("fleet-mixed: " + dev.id + " has no latest snapshot");
      continue;
    }
    const uint64_t want = CodesDigest(*model);
    fleet->server->WithSessionQuiesced(
        dev.id, [&](qcore::CalibrationSession& s) {
          if (CodesDigest(*s.model()) != want) {
            rep->Fail("fleet-mixed: " + dev.id +
                      " final codes differ from its latest snapshot");
          }
        });
  }
  return wrong;
}

RunReport RunFleetMixed(const RunOptions& o) {
  const std::string w = o.workload;
  RunReport rep;
  const std::string wal_dir =
      o.scratch_dir + "/wal-" + std::to_string(::getpid());
  std::filesystem::create_directories(wal_dir);
  const uint64_t fleet_seed = Mix(o.seed, 4);

  Deployment dep;
  std::vector<double> setup_s;
  FleetData data;
  std::vector<MixedDevice> devices;
  uint64_t digest = 0;
  MixedPhase a, b;
  SpanRecorder rec;
  ServingCounters c0, c1;
  std::vector<StepTrace> traces;
  int64_t wrong = 0;
  {
    Fleet fleet;
    SetUpFleet(kMixedDevices, fleet_seed, wal_dir + "/snapshots.wal", &dep,
               &fleet, &setup_s, &rep);
    digest = MixedVerificationDigest(dep, o.seed, &rep);
    devices = MakeMixedDevices(o.seed, kMixedDevices, "dev-", &data);
    Line(w, "devices per shard: " +
                std::to_string(fleet.server->SessionCountOnShard(0)) + " " +
                std::to_string(fleet.server->SessionCountOnShard(1)));

    std::vector<InferRecord> records;
    const double phase_s = o.trace ? o.seconds / 2 : o.seconds;
    a = RunClosedLoop(fleet.server.get(), &data, &devices, phase_s, nullptr,
                      &records);
    if (o.trace) {
      qcore::TraceRing::Global().Clear();
      c0 = ServingCounters::Read(fleet.server->metrics());
      b = RunClosedLoop(fleet.server.get(), &data, &devices, phase_s, &rec,
                        &records);
      c1 = ServingCounters::Read(fleet.server->metrics());
    }
    fleet.server->Drain();
    wrong = VerifyMixed(dep, &fleet, &data, devices, &records, &rep);

    // Devices replayed against ContinualDriver (the traced mirror in a
    // traced run, which the edge-calib check and the self-tests pin to it).
    Rng pick(Mix(o.seed, 9));
    for (int d : pick.SampleWithoutReplacement(kMixedDevices,
                                               kReferenceDevices)) {
      const MixedDevice& dev = devices[static_cast<size_t>(d)];
      std::vector<float> accuracies;
      auto model = ReplayDevice(dep, fleet_seed, dev, &accuracies,
                                o.trace ? &traces : nullptr, &rec);
      const uint64_t want = CodesDigest(*model);
      fleet.server->WithSessionQuiesced(
          dev.id, [&](qcore::CalibrationSession& s) {
            if (CodesDigest(*s.model()) != want) {
              rep.Fail("fleet-mixed: " + dev.id +
                       " final codes differ from the ContinualDriver replay");
              ++wrong;
            }
          });
      if (accuracies != dev.accuracies) {
        rep.Fail("fleet-mixed: " + dev.id +
                 " calibration accuracies differ from the replay");
        ++wrong;
      }
    }
  }
  std::filesystem::remove_all(wal_dir);

  rep.attempted = a.attempted + b.attempted;
  rep.failed = a.failed + b.failed + wrong;
  PrintContext(o, digest);
  const Summary calib = Summarize(a.calib_ms, 0.99);
  const Summary infer = Summarize(a.infer_ms, 0.99);
  const double tasks = static_cast<double>(std::max<int64_t>(1, a.tasks));
  if (!o.trace) {
    rep.Set("setup_s", Quantile(setup_s, 0.5));
    rep.Set("tasks_per_s", static_cast<double>(a.tasks) / a.seconds);
    rep.Set("cpu_ms_per_task", a.cpu_ms / tasks);
    rep.Set("slo_attainment", static_cast<double>(a.infer_within_slo) /
                                  std::max<double>(1, a.infer_attempted));
    rep.Set("avg_accuracy", Mean(a.accuracy));
    rep.Set("edge_state_kib", dep.EdgeStateKib());
    rep.Set("peak_rss_mb", PeakRssMb());
    rep.Set("completed_share",
            static_cast<double>(rep.attempted - rep.failed) /
                std::max<double>(1, rep.attempted));
    PrintMetric(w, "setup_s", rep.metrics["setup_s"], "s", SetupNote(setup_s));
    PrintMetric(w, "calib_p50_ms", calib.p50, "ms",
                "(submit to result, n=" + std::to_string(calib.n) + ")");
    PrintMetric(w, "calib_p99_ms", calib.tail, "ms", TailNote(calib, 0.99));
    PrintMetric(w, "infer_p50_ms", infer.p50, "ms",
                "(n=" + std::to_string(infer.n) + ")");
    PrintMetric(w, "infer_p99_ms", infer.tail, "ms", TailNote(infer, 0.99));
    PrintMetric(w, "infer_slo_attainment", rep.metrics["slo_attainment"],
                "ratio", "(<= 10 ms)");
    PrintMetric(w, "tasks_per_s", rep.metrics["tasks_per_s"], "1/s");
    PrintMetric(w, "cpu_ms_per_task", rep.metrics["cpu_ms_per_task"], "ms");
    PrintMetric(w, "failed_share",
                static_cast<double>(rep.failed) /
                    std::max<double>(1, rep.attempted),
                "ratio");
    PrintMetric(w, "avg_accuracy", rep.metrics["avg_accuracy"], "ratio");
    PrintMetric(w, "edge_state_kib", dep.EdgeStateKib(), "KiB");
    PrintMetric(w, "peak_rss_mb", PeakRssMb(), "MiB");
    return rep;
  }

  ZeroPerLayer(&rep);
  SetServingLayers(c0, c1, b.attempted, b.tasks, &rep);
  SetStepTraces(traces, &rep);
  {
    Rng pool_rng(Mix(o.seed, 2));
    const Dataset pool =
        qcore::MakeUpdatePool(dep.qcore, devices[0].batches[0], &pool_rng);
    SetLeafReplay(ReplayLeaves(*dep.base, pool.x(), 30, &rec), &rep);
  }
  rep.Set("client.p50_ms", calib.p50);
  rep.Set("obs.trace_overhead", Quantile(b.calib_ms, 0.5) / calib.p50);
  PrintPerLayer(w, rep);
  WriteSpans(o, rec);
  return rep;
}

}  // namespace

double Deployment::EdgeStateKib() const {
  const double model_bytes = static_cast<double>(base->SizeBits()) / 8.0;
  const double qcore_bytes =
      static_cast<double>(qcore.x().size()) * sizeof(float) +
      static_cast<double>(qcore.size()) * sizeof(int);
  const double bf_bytes =
      static_cast<double>(bf->ParamCount()) * bf->bits() / 8.0;
  return (model_bytes + qcore_bytes + bf_bytes) / 1024.0;
}

Deployment PrepareFleetDeployment() { return Prepare(FleetConfig()); }

uint64_t MixedVerificationDigest(const Deployment& dep, uint64_t seed,
                                 RunReport* report) {
  const uint64_t fleet_seed = Mix(seed, 4);
  FleetData data;
  std::vector<MixedDevice> devices =
      MakeMixedDevices(seed, kVerifyDevices, "verify-", &data);
  ShardedFleetServer server(*dep.base, *dep.bf,
                            DeployedOptions(fleet_seed, true));
  for (const MixedDevice& dev : devices) {
    server.RegisterDevice(dev.id, dep.qcore);
  }
  // Every step of every device submitted at once; per-device FIFO order
  // makes the outcome independent of scheduling. dev.infer accumulates the
  // inferences of all steps in submission order.
  MixedPhase ph;
  for (int k = 0; k < kVerifySteps; ++k) {
    for (MixedDevice& dev : devices) {
      SubmitStep(&server, &data, &dev, &ph, nullptr);
    }
  }
  server.Drain();
  uint64_t digest = Fnv1a(nullptr, 0);
  for (MixedDevice& dev : devices) {
    for (MixedDevice::Pending& p : dev.infer) {
      const InferenceResult r = p.fut.get();
      digest = Fnv1a(r.predictions.data(), r.predictions.size() * sizeof(int),
                     digest);
    }
    std::vector<float> accuracies;
    auto model = ReplayDevice(dep, fleet_seed, dev, &accuracies, nullptr,
                              nullptr);
    const uint64_t want = CodesDigest(*model);
    server.WithSessionQuiesced(dev.id, [&](qcore::CalibrationSession& s) {
      if (CodesDigest(*s.model()) != want) {
        report->Fail("verification: " + dev.id +
                     " codes differ from the ContinualDriver replay");
      }
    });
    digest = CodesDigest(*model, digest);
  }
  if (ph.failed != 0) report->Fail("verification: a submission was refused");
  return digest;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"edge-calib", "fleet-infer",
                                                  "fleet-mixed"};
  return kNames;
}

RunReport RunWorkload(const RunOptions& options) {
  HostStealShare();  // the context line reports steal from here on
  std::filesystem::create_directories(options.scratch_dir);
  // Start every helper thread the runtime may use while this thread still
  // has the process's whole CPU set (see CpuRotation).
  const int workers =
      std::max(qcore::DefaultParallelWorkers(), qcore::kernels::gemm_threads());
  qcore::ParallelFor(workers, workers, [](int64_t) {});
  if (options.trace) {
    // Large enough that no ring wraps in a traced run; rings are created
    // per thread on first record, so this precedes every server thread.
    qcore::TraceRing::Global().SetCapacityPerThread(size_t{1} << 22);
  }
  if (options.workload == "edge-calib") return RunEdgeCalib(options);
  if (options.workload == "fleet-infer") return RunFleetInfer(options);
  QCORE_CHECK(options.workload == "fleet-mixed");
  return RunFleetMixed(options);
}

}  // namespace qbench
