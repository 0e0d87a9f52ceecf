// The three workloads of the QCore benchmark (qbench/README.md says why each
// exists and which end-to-end metric each per-layer metric should move):
//   edge-calib  — one device, one thread, no serving layer: ContinualDriver
//                 on DSA-like InceptionTime streaming shifted subjects;
//   fleet-infer — open-loop Poisson inference over many HAR devices into the
//                 sharded server, no calibration;
//   fleet-mixed — closed-loop device clients, each step an inference burst,
//                 one calibration (published to a WAL-backed snapshot
//                 store) and a trailing inference.
// Each builds its inputs from the seed, measures for the given seconds,
// checks every output it can against an independent reference, and fills a
// RunReport with the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run).
#ifndef QBENCH_LIB_WORKLOADS_H_
#define QBENCH_LIB_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/bitflip.h"
#include "data/dataset.h"
#include "qbench/lib/stats.h"
#include "quant/quantized_model.h"

namespace qbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory (created if missing) for the snapshot WAL and the trace file.
  std::string scratch_dir = ".bench_build/run";
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload, printing a human-readable report (every metric by
// name with its unit, plus the run context) to stdout.
RunReport RunWorkload(const RunOptions& options);

// --- Pieces the self-tests drive directly. --------------------------------

// A server-prepared deployment: quantized base model (shadows dropped),
// trained bit-flip net, and the QCore every device starts from.
struct Deployment {
  std::unique_ptr<qcore::QuantizedModel> base;
  std::unique_ptr<qcore::BitFlipNet> bf;
  qcore::Dataset qcore;
  // Deployed model (SizeBits) + QCore bytes + bit-flip net at its bit-width:
  // what a device stores.
  double EdgeStateKib() const;
};

// The fleet's deployment (USC-like HAR, OmniScaleCNN, 4-bit), exactly as
// every fleet workload prepares it. Deterministic.
Deployment PrepareFleetDeployment();

// The untimed fleet-mixed verification phase: a few devices run a fixed
// number of steps through a sharded server; their codes are compared with
// ContinualDriver references (mismatches go to `report`). Returns the
// digest of their codes and predictions — one digest per seed.
uint64_t MixedVerificationDigest(const Deployment& dep, uint64_t seed,
                                 RunReport* report);

}  // namespace qbench

#endif  // QBENCH_LIB_WORKLOADS_H_
