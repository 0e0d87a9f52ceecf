#include "qbench/lib/stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <limits>
#include <thread>

#include "common/rng.h"

namespace qbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"tasks_per_s", "1/s"},
      {"cpu_ms_per_task", "ms"},
      {"slo_attainment", "ratio"},
      {"avg_accuracy", "ratio"},
      {"edge_state_kib", "KiB"},
      {"peak_rss_mb", "MiB"},
      {"completed_share", "ratio"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"core.pool_ms", "ms"},
      {"core.forward_ms", "ms"},
      {"core.bitflip_ms", "ms"},
      {"core.resample_ms", "ms"},
      {"core.eval_ms", "ms"},
      {"core.bitflip_codes_changed", "count/call"},
      {"core.bitflip_tensors_changed_share", "ratio"},
      {"core.qcore_churn", "count/step"},
      {"nn.forward_rows_per_s", "rows/s"},
      {"nn.conv_ms", "ms"},
      {"nn.dense_ms", "ms"},
      {"nn.other_ms", "ms"},
      {"tensor.gemm_calls_per_step", "count/task"},
      {"tensor.gemm_wide_share", "ratio"},
      {"tensor.conv_gemm_ms", "ms"},
      {"tensor.conv_lowering_ms", "ms"},
      {"runtime.parallel_for_wide_calls", "count/task"},
      {"runtime.parallel_for_busy_calls", "count/task"},
      {"serving.admission_ms_p50", "ms"},
      {"serving.admission_ms_p99", "ms"},
      {"serving.batch_wait_ms_p50", "ms"},
      {"serving.batch_wait_ms_p99", "ms"},
      {"serving.queue_wait_ms_p50", "ms"},
      {"serving.queue_wait_ms_p99", "ms"},
      {"serving.exec_ms_p50", "ms"},
      {"serving.exec_ms_p99", "ms"},
      {"serving.deliver_ms_p50", "ms"},
      {"serving.deliver_ms_p99", "ms"},
      {"serving.calib_queue_wait_ms_p50", "ms"},
      {"serving.calib_queue_wait_ms_p99", "ms"},
      {"serving.calib_exec_ms_p50", "ms"},
      {"serving.calib_exec_ms_p99", "ms"},
      {"serving.batch_occupancy", "rows/batch"},
      {"serving.barrier_flushes", "count/calib"},
      {"serving.shed_share", "ratio"},
      {"serving.publish_ms", "ms"},
      {"serving.wal_bytes", "bytes/append"},
      {"obs.trace_overhead", "ratio"},
      {"obs.trace_dropped_events", "count"},
      {"gen.lag_p99_ms", "ms"},
      {"client.p50_ms", "ms"},
  };
  return kMetrics;
}

namespace {

bool IsAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name[0])) return false;
  for (char c : name) {
    if (!IsAlnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

bool ValidUnit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit) {
    if (!IsAlnum(c) && c != '_' && c != '/' && c != '%' && c != '.' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

TailChoice ChooseTail(size_t n, double target) {
  TailChoice choice;
  if (n < 20) return choice;
  choice.q = std::min(target, 1.0 - 10.0 / static_cast<double>(n));
  choice.supported = true;
  return choice;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  // The epsilon keeps q*n that is integral in exact arithmetic from rounding
  // up a rank (and so leaving fewer samples beyond the tail than promised).
  const double rank = std::ceil(q * n - 1e-9);
  const size_t index = static_cast<size_t>(
      std::clamp(rank - 1.0, 0.0, n - 1.0));
  return values[index];
}

Summary Summarize(const std::vector<double>& values, double tail_target) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  const TailChoice tail = ChooseTail(values.size(), tail_target);
  s.p50 = Quantile(values, 0.5);
  s.tail = Quantile(values, tail.q);
  s.tail_q = tail.q;
  return s;
}

std::string TailNote(const Summary& s, double target) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "(p%.4g of n=%zu%s)", s.tail_q * 100.0, s.n,
                s.tail_q < target ? "; too few samples for the named tail"
                                  : "");
  return buf;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<Arrival> MakeOpenLoopSchedule(uint64_t seed, double rate_per_s,
                                          double seconds, int num_devices,
                                          int num_inputs) {
  qcore::Rng rng(seed);
  std::vector<Arrival> schedule;
  const double horizon_ns = seconds * 1e9;
  double t_ns = 0.0;
  for (;;) {
    t_ns += -std::log(1.0 - rng.NextDouble()) / rate_per_s * 1e9;
    if (t_ns >= horizon_ns) break;
    Arrival a;
    a.due_ns = static_cast<int64_t>(t_ns);
    a.device = static_cast<int>(rng.NextUint64(num_devices));
    a.input = static_cast<int>(rng.NextUint64(num_inputs));
    schedule.push_back(a);
  }
  return schedule;
}

OpenLoopResult RunOpenLoop(const std::vector<Arrival>& schedule,
                           const std::function<bool(size_t)>& submit,
                           const std::function<int64_t()>& now_ns,
                           const std::function<void(int64_t)>& sleep_until_ns,
                           std::vector<double>* lag_ms) {
  const std::function<int64_t()> now = now_ns ? now_ns : SteadyNowNs;
  const std::function<void(int64_t)> sleep_until =
      sleep_until_ns ? sleep_until_ns : [](int64_t t) {
        const int64_t wait = t - SteadyNowNs();
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
        }
      };
  OpenLoopResult r;
  lag_ms->assign(schedule.size(), 0.0);
  const int64_t start = now();
  for (size_t i = 0; i < schedule.size(); ++i) {
    const int64_t due = start + schedule[i].due_ns;
    if (now() < due) sleep_until(due);
    (*lag_ms)[i] =
        static_cast<double>(std::max<int64_t>(0, now() - due)) / 1e6;
    ++r.attempted;
    if (!submit(i)) ++r.refused;
  }
  return r;
}

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

namespace {

// Steal and total jiffies of the aggregate "cpu" line of /proc/stat.
bool ReadCpuJiffies(double* steal, double* total) {
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return false;
  *steal = *total = 0.0;
  double v = 0.0;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice).
  for (int field = 0; field < 8 && in >> v; ++field) {
    *total += v;
    if (field == 7) *steal = v;
  }
  return *total > 0.0;
}

}  // namespace

double HostStealShare() {
  static double steal0 = 0.0, total0 = 0.0;
  static const bool ok = ReadCpuJiffies(&steal0, &total0);
  double steal = 0.0, total = 0.0;
  if (!ok || !ReadCpuJiffies(&steal, &total) || total <= total0) {
    return ok ? 0.0 : std::numeric_limits<double>::quiet_NaN();
  }
  return (steal - steal0) / (total - total0);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t SpanRecorder::Begin(const std::string& name, uint64_t parent) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.id = spans_.size() + 1;
  s.start_ns = SteadyNowNs();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanRecorder::End(uint64_t id) {
  spans_[static_cast<size_t>(id - 1)].end_ns = SteadyNowNs();
}

bool SpanRecorder::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu}}\n",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void RunReport::Fail(const std::string& what) {
  correct = false;
  errors.push_back(what);
}

std::string ResultJson(const RunReport& report,
                       const std::vector<MetricSpec>& schema,
                       std::vector<std::string>* missing) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : schema) {
    auto it = report.metrics.find(spec.name);
    if (it == report.metrics.end() || !std::isfinite(it->second)) {
      missing->push_back(spec.name);
      continue;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", it->second);
    out += first ? "" : ", ";
    first = false;
    out += std::string("\"") + spec.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + spec.unit + "\"}";
  }
  out += "}}";
  return missing->empty() ? out : "";
}

uint64_t Fnv1a(const void* data, size_t len, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace qbench
