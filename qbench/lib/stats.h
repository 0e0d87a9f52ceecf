// Measurement machinery of the QCore benchmark: the metric schema, the
// percentile rule, the open-loop arrival schedule, process counters, the
// benchmark's own in-memory span recorder, and the result line.
//
// Nothing here calls into the layers under test (the schedule draws from
// common/rng so it is the same on every platform); the workloads
// (qbench/lib/workloads.h) use these pieces around the calls they make
// into the system.
#ifndef QBENCH_LIB_STATS_H_
#define QBENCH_LIB_STATS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace qbench {

// ------------------------------------------------------------- metric schema

struct MetricSpec {
  const char* name;
  const char* unit;
};

// End-to-end metrics: every workload reports every one of these in an
// untraced run (BENCHMARK.json "end_to_end"; the README maps each to the
// workload-specific quantity it measures).
const std::vector<MetricSpec>& EndToEndMetrics();
// Per-layer metrics: every workload reports every one of these in a traced
// run, 0 where the layer does no work on that workload.
const std::vector<MetricSpec>& PerLayerMetrics();

// [A-Za-z0-9][A-Za-z0-9_.-]{0,63}
bool ValidMetricName(const std::string& name);
// [A-Za-z0-9_/%.-]{1,16}
bool ValidUnit(const std::string& unit);

// ----------------------------------------------------------- percentile rule

// The highest percentile (as a fraction) a sample of `n` supports under the
// rule "at least ten samples beyond it", capped at `target`: min(target,
// 1 - 10/n). Samples too small to put ten beyond the median (n < 20) get
// the median, and `supported` is false.
struct TailChoice {
  double q = 0.5;
  bool supported = false;
};
TailChoice ChooseTail(size_t n, double target);

// Nearest-rank quantile: the smallest sample with at least q*n samples at
// or below it. q in [0, 1]; `values` need not be sorted. NaN when empty.
double Quantile(std::vector<double> values, double q);

// Median plus the tail the sample supports, with its sample count — the
// form every timing is reported in.
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_q = 0.5;
};
Summary Summarize(const std::vector<double>& values, double tail_target);
// "(p82.5 of n=57; too few samples for the named tail)" — which percentile
// `s.tail` is, from how many samples, and whether it fell short of `target`.
std::string TailNote(const Summary& s, double target);

double Mean(const std::vector<double>& values);

// --------------------------------------------------------- open-loop arrivals

// One request of an open-loop schedule: due `due_ns` after the start of the
// run, aimed at device `device`, carrying input `input`.
struct Arrival {
  int64_t due_ns = 0;
  int device = 0;
  int input = 0;
};

// Poisson arrivals at `rate_per_s` for `seconds`, devices and inputs drawn
// uniformly. A pure function of its arguments: one seed, one schedule.
std::vector<Arrival> MakeOpenLoopSchedule(uint64_t seed, double rate_per_s,
                                          double seconds, int num_devices,
                                          int num_inputs);

// Drives a schedule from one thread. For each arrival it waits until the
// request is due, records how late the generator got to it (`lag_ms[i]`,
// measured immediately before the call, so `submit` may read it), and calls
// `submit(i)`, which returns false for a request the system refused. The
// caller times each request from when it was DUE with LatencyFromDueMs, so
// a stall of the generator or of the system charges every request it
// delays. `now_ns` / `sleep_until_ns` default to the steady clock; tests
// substitute a simulated one.
struct OpenLoopResult {
  int64_t attempted = 0;
  int64_t refused = 0;
};
OpenLoopResult RunOpenLoop(
    const std::vector<Arrival>& schedule,
    const std::function<bool(size_t)>& submit,
    const std::function<int64_t()>& now_ns,
    const std::function<void(int64_t)>& sleep_until_ns,
    std::vector<double>* lag_ms);

// Latency from the due time of a request the generator reached `lag_ms`
// late, whose submit call (admission included) took `submit_ms` on the
// client's clock and whose server-side latency — from a point inside that
// call to delivery — was `service_ms`. The part of the call after the
// server's clock starts (the batcher enqueue, microseconds) is counted
// twice; the wake-up of the client after delivery is not counted.
inline double LatencyFromDueMs(double lag_ms, double submit_ms,
                               double service_ms) {
  return lag_ms + submit_ms + service_ms;
}

// ---------------------------------------------------------- process counters

int64_t SteadyNowNs();
// CPU time of the whole process (all threads), milliseconds.
double ProcessCpuMs();
// Peak resident set of the process so far, MiB.
double PeakRssMb();
// Share of the host's CPU time that went to other guests (steal in
// /proc/stat) since the first call, which sets the baseline. NaN where
// /proc/stat cannot be read.
double HostStealShare();

// ------------------------------------------------------ benchmark span trace

// The benchmark's own spans, recorded around each call it makes into a
// layer in a traced run. Kept in memory; written as chrome-trace JSON at the
// end. Spans of one step or request share a parent.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t id = 0;
    uint64_t parent = 0;
  };

  uint64_t Begin(const std::string& name, uint64_t parent = 0);
  void End(uint64_t id);
  const std::vector<Span>& spans() const { return spans_; }
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;  // span id = index + 1
};

// RAII span around one call; a null recorder records nothing, so the same
// code path runs traced and untraced.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name, uint64_t parent = 0)
      : rec_(rec), id_(rec != nullptr ? rec->Begin(name, parent) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  uint64_t id_;
};

// ---------------------------------------------------------------- the result

// Metric values of one run plus its correctness verdict and counts. The
// result line is the last line the benchmark prints.
struct RunReport {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> errors;  // one line per correctness failure

  void Fail(const std::string& what);
  void Set(const std::string& name, double value) { metrics[name] = value; }
};

// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} over
// exactly the metrics in `schema`, values printed with all their digits.
// Returns "" and lists the names in *missing if the report lacks any.
std::string ResultJson(const RunReport& report,
                       const std::vector<MetricSpec>& schema,
                       std::vector<std::string>* missing);

// FNV-1a over a byte range, chained through `h`.
uint64_t Fnv1a(const void* data, size_t len,
               uint64_t h = 1469598103934665603ULL);

}  // namespace qbench

#endif  // QBENCH_LIB_STATS_H_
