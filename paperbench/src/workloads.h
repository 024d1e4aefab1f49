// The three benchmark workloads. Each is a closed loop driven from one
// process through the library's public entry points, with at most three
// busy threads, and a fixed amount of work: `seconds` only scales how many
// fixed-size timed windows are played, so every work count repeats exactly
// from run to run and is comparable across commits.
//
// Costs are read on two clocks. Wall time is what a caller waits; process
// CPU time is what the work costs. On a shared virtual machine the
// hypervisor's preemptions (steal time) stretch wall time by tens of
// percent for seconds at a time, and the kernel keeps them out of CPU
// time, so the end-to-end metrics are CPU-time metrics and wall time is
// reported alongside for reading only.
#ifndef PAPERBENCH_WORKLOADS_H_
#define PAPERBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace paperbench {

struct RunOptions {
  int seconds = 10;
  /// Non-null: record spans, and alternate traced and untraced windows so
  /// the tracing overhead can be read off the two window sets.
  Trace* trace = nullptr;
};

/// A wall-clock and a process-CPU-clock sample of one interval.
struct Cost {
  double wall_us = 0.0;
  double cpu_us = 0.0;
};

struct WorkloadReport {
  std::string workload;
  std::string error;       ///< "" = every output check passed
  uint64_t attempted = 0;  ///< SubmitFrame / StepRound calls made
  uint64_t failed = 0;     ///< ... of which returned an error

  std::vector<Cost> setups;   ///< one per set-up repetition
  double resident_bytes_per_tenant = 0.0;
  double hibernated_bytes_per_tenant = 0.0;
  std::vector<Cost> windows;         ///< per tenant round, untraced windows
  std::vector<Cost> traced_windows;  ///< per tenant round, traced windows
  std::vector<Cost> trips;           ///< untraced round trips

  // Exact work counts over the timed windows (they must repeat exactly).
  uint64_t window_rounds = 0;     ///< tenant rounds the windows played
  uint64_t reports_admitted = 0;  ///< reports admitted in the windows
  uint64_t cold_trip_rounds = 0;  ///< rounds played by cold round trips
  uint64_t rehydrations = 0;      ///< rehydrations in windows and cold trips
  uint64_t total_rounds = 0;      ///< rounds in every tenant's book at the end

  std::vector<Metric> layers;  ///< per-layer metrics from traced traffic
};

std::vector<double> WallUs(const std::vector<Cost>& costs);
std::vector<double> CpuUs(const std::vector<Cost>& costs);

WorkloadReport RunSteadyMix(const Fixture& fixture, const RunOptions& options);
WorkloadReport RunColdChurn(const Fixture& fixture, const RunOptions& options);
WorkloadReport RunLockstepFitted(const Fixture& fixture,
                                 const RunOptions& options);

/// Per-kind layer probes on mini-fleets and standalone sessions (traced
/// runs only).
std::vector<Metric> ProbeLayers(const Fixture& fixture, std::string* error);

}  // namespace paperbench

#endif  // PAPERBENCH_WORKLOADS_H_
