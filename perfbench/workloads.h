// The benchmark's workloads: live loopback batches (real CwcServer plus
// in-process PhoneAgents) and fleet-scale simulator batches (real
// TestbedSimulation). Each workload generates its inputs from the seed,
// runs one closed-loop batch per run_batch() call, checks every output, and
// reports what it measured.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "layers.h"

namespace perfbench {

/// Instrumentation shared by every batch of one benchmark run.
struct Context {
  SpanRecorder spans;
  BuildLog builds;
  TaskLog tasks;
  ResourceGuard guard;
  int cpus = 1;
  int agents = 1;                 ///< live: in-process PhoneAgent threads
  std::size_t parallel_pods = 1;  ///< sim-fleet-pods: packing workers
  std::string scratch_dir;        ///< run-private files (journals)
};

/// What one batch measured. Times in seconds unless named otherwise.
struct Batch {
  bool ok = false;
  std::string error;  ///< why the batch failed (timeout, bad output, ...)
  bool traced = false;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double submit_s = 0.0;
  double makespan_s = 0.0;
  double input_mb = 0.0;
  double shipped_mb = 0.0;
  double peak_rss_mb = 0.0;  ///< process peak RSS while the batch ran
  std::map<std::string, double> layers;  ///< per-layer metrics (traced only)
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates inputs and reference outputs; not timed.
  virtual void prepare() = 0;
  /// Sets up the substrate without running a batch and returns the set-up
  /// time. Workloads whose set-up is cheap take their set-up samples here,
  /// back to back before the first batch, rather than from the batches.
  virtual std::optional<double> setup_only() { return std::nullopt; }
  /// Distinct inputs a run cycles through: batch `round` runs input
  /// `round % rounds()`, and a run ends on a whole cycle, so medians weigh
  /// every input equally and repeat exactly per seed.
  virtual int rounds() const { return 1; }
  virtual Batch run_batch(bool traced, int round) = 0;
  /// Run-level self-checks after all batches (e.g. same-seed determinism);
  /// empty when they pass.
  virtual std::string final_check() const { return {}; }
  /// One line describing the workload's inputs, for the run header.
  virtual std::string describe() const = 0;
};

std::unique_ptr<Workload> make_live_workload(const std::string& name, std::uint64_t seed,
                                             Context& ctx);
std::unique_ptr<Workload> make_sim_workload(const std::string& name, std::uint64_t seed,
                                            Context& ctx);

}  // namespace perfbench
