#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string_view>

#include "ingest/ingest.h"
#include "obs/metrics.h"
#include "stats.h"

namespace paperbench {

std::vector<double> WallUs(const std::vector<Cost>& costs) {
  std::vector<double> out;
  for (const Cost& c : costs) out.push_back(c.wall_us);
  return out;
}

std::vector<double> CpuUs(const std::vector<Cost>& costs) {
  std::vector<double> out;
  for (const Cost& c : costs) out.push_back(c.cpu_us);
  return out;
}

namespace {

// Set-up is repeated and its median reported: one set-up is a single
// sub-second sample, too few to hold a bound. The lockstep fleet sets up
// five times faster, so it affords more repetitions for the same time.
constexpr int kSetupReps = 7;
constexpr int kLockstepSetupReps = 21;
constexpr uint32_t kHalfRound = static_cast<uint32_t>(kRoundSize / 2);
// Fewest cold round trips in a run: a p90 over them has ten samples beyond.
constexpr size_t kMinTrips = 12 * kMinBeyond;

// Both clocks, read together. CPU time read while the shard workers or
// pool helpers are parked is exact: a thread's CPU time is folded in when
// it blocks.
class Stopwatch {
 public:
  Stopwatch() : wall_(NowNs()), cpu_(ProcessCpuNs()) {}
  int64_t wall_start() const { return wall_; }
  Cost Elapsed(double per = 1.0) const {
    const int64_t cpu = ProcessCpuNs();
    const int64_t wall = NowNs();
    return {MicrosBetween(wall_, wall) / per, MicrosBetween(cpu_, cpu) / per};
  }

 private:
  int64_t wall_;
  int64_t cpu_;
};

size_t WindowCount(int seconds, double windows_per_second,
                   size_t min_windows) {
  const auto n = static_cast<size_t>(
      std::llround(static_cast<double>(seconds) * windows_per_second));
  return std::max(min_windows, n);
}

// Tenants whose books the correctness gate replays solo: every mixed kind
// twice, from both ends of the fleet.
std::vector<size_t> GateSample(size_t tenants) {
  return {0, 1, 2, 3, tenants - 4, tenants - 3, tenants - 2, tenants - 1};
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::vector<double> DurationsFrom(const Trace& trace, size_t first,
                                  const char* name) {
  std::vector<double> out;
  const std::vector<Span>& spans = trace.spans();
  for (size_t i = first; i < spans.size(); ++i) {
    if (std::string_view(spans[i].name) == name) {
      out.push_back(MicrosBetween(spans[i].start_ns, spans[i].end_ns));
    }
  }
  return out;
}

void AddOverhead(WorkloadReport* report) {
  if (report->traced_windows.empty()) return;
  report->layers.push_back(
      {report->workload + ".trace.overhead",
       Ratio(Median(CpuUs(report->traced_windows)),
             Median(CpuUs(report->windows))) -
           1.0,
       "ratio", report->workload + "/cpu_us_per_round"});
}

void RecordWindow(const Cost& per_round, bool traced, WorkloadReport* report) {
  (traced ? report->traced_windows : report->windows).push_back(per_round);
}

// Parks every resident tenant, then reads the fleet's heap footprint
// against `heap_before` and the total rounds in the parked books.
void MeasureHibernated(SessionFleet* fleet, size_t heap_before,
                       WorkloadReport* report) {
  const size_t n = fleet->num_tenants();
  for (size_t i = 0; i < n; ++i) {
    if (fleet->TenantResident(i) && !fleet->HibernateTenant(i).ok()) {
      report->error = "hibernating tenant " + std::to_string(i) + " failed";
      return;
    }
  }
  report->hibernated_bytes_per_tenant =
      static_cast<double>(HeapInUse() - heap_before) / static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    report->total_rounds +=
        fleet->tenant(i).hibernated->checkpoint.records.size();
  }
}

// ---------------------------------------------------------------------------
// Ingest workloads
// ---------------------------------------------------------------------------

struct IngestShape {
  const char* name;
  size_t tenants;
  int shards;
  size_t max_resident_per_shard;  ///< 0 = every tenant stays resident
  size_t warm_rounds;             ///< untimed tenant rounds before windows
  size_t window_rounds;           ///< tenant rounds per timed window
  size_t trip_rounds;  ///< rounds per flush inside a window
  double windows_per_second;  ///< nominal, turns --seconds into windows
  size_t min_windows;
  /// Cold round trips after each window; with none, each flush inside a
  /// window is a round trip.
  size_t trips_per_window;
  bool expect_rehydration;  ///< every window round rehydrates its tenant
};

// One set-up repetition: specs (their LDP attacks), fleet and service.
// Members are destroyed service first, then fleet, then the attacks.
struct IngestRig {
  FleetSpecs specs;
  std::unique_ptr<SessionFleet> fleet;
  std::unique_ptr<itrim::IngestService> service;
};

class IngestClient {
 public:
  IngestClient(itrim::IngestService* service, size_t tenants, Trace* trace,
               WorkloadReport* report)
      : service_(service), tenants_(tenants), trace_(trace), report_(report) {}

  /// One 12-byte frame of half a round for `tenant`.
  bool SubmitHalf(uint64_t tenant, bool traced, int64_t parent,
                  uint64_t request) {
    unsigned char frame[itrim::kIngestFrameBytes];
    itrim::EncodeIngestEvent({tenant, kHalfRound}, frame);
    ++report_->attempted;
    const int64_t t0 = traced ? NowNs() : 0;
    const itrim::Status status =
        service_->SubmitFrame(frame, itrim::kIngestFrameBytes);
    if (traced) {
      trace_->Add("ingest.SubmitFrame", t0, NowNs(), parent, request);
    }
    if (!status.ok()) {
      ++report_->failed;
      Fail("SubmitFrame: " + status.ToString());
      return false;
    }
    return true;
  }

  /// `rounds` tenant rounds, round-robin over the fleet, two frames each.
  bool SubmitRounds(size_t rounds, bool traced, int64_t parent) {
    for (size_t r = 0; r < rounds; ++r) {
      const uint64_t request = cursor_++;
      const uint64_t tenant = request % tenants_;
      if (!SubmitHalf(tenant, traced, parent, request) ||
          !SubmitHalf(tenant, traced, parent, request)) {
        return false;
      }
    }
    return true;
  }

  /// One cold round trip over the next `count` tenants: their first
  /// halves are applied untimed, then the trip runs from the first
  /// completing SubmitFrame to Flush() returning.
  bool ColdTrip(size_t count, bool traced, Cost* cost) {
    const uint64_t first = cursor_;
    for (size_t k = 0; k < count; ++k) {
      if (!SubmitHalf((first + k) % tenants_, false, -1, 0)) return false;
    }
    if (!Flush(false, -1)) return false;
    const Stopwatch watch;
    const int64_t span =
        traced ? trace_->Add("ingest.cold_trip", watch.wall_start(), 0) : -1;
    for (size_t k = 0; k < count; ++k) {
      if (!SubmitHalf((first + k) % tenants_, traced, span, first + k)) {
        return false;
      }
    }
    if (!Flush(traced, span)) return false;
    *cost = watch.Elapsed();
    if (traced) trace_->SetEnd(span, NowNs());
    cursor_ += count;
    return true;
  }

  bool Flush(bool traced, int64_t parent) {
    const int64_t t0 = traced ? NowNs() : 0;
    const itrim::Status status = service_->Flush();
    if (traced) trace_->Add("ingest.Flush", t0, NowNs(), parent);
    if (!status.ok()) Fail("Flush: " + status.ToString());
    return status.ok();
  }

 private:
  void Fail(const std::string& what) {
    if (report_->error.empty()) report_->error = what;
  }

  itrim::IngestService* service_;
  size_t tenants_;
  Trace* trace_;
  WorkloadReport* report_;
  uint64_t cursor_ = 0;
};

uint64_t BatchesPopped(const itrim::IngestService& service) {
  return service.Scrape().merged.counters[static_cast<int>(
      itrim::obs::Counter::kIngestBatchesPopped)];
}

WorkloadReport RunIngest(const Fixture& fixture, const IngestShape& shape,
                         const RunOptions& options) {
  WorkloadReport report;
  report.workload = shape.name;
  Trace* trace = options.trace;
  const size_t n = shape.tenants;
  const size_t windows =
      WindowCount(options.seconds, shape.windows_per_second, shape.min_windows);
  // Short runs play more trips per window, so a p90 always has ten samples
  // beyond it.
  const size_t trips_per_window =
      shape.trips_per_window == 0
          ? 0
          : std::max(shape.trips_per_window,
                     (kMinTrips + windows - 1) / windows);
  // Everything alive across the footprint measurement is sized up front,
  // so only the fleet moves the heap between the two readings.
  report.setups.reserve(kSetupReps);
  report.windows.reserve(windows);
  report.traced_windows.reserve(windows);
  report.trips.reserve(windows * (shape.window_rounds / shape.trip_rounds +
                                  trips_per_window));

  std::unique_ptr<IngestRig> rig;
  size_t heap_before = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rig.reset();
    rig = std::make_unique<IngestRig>();
    const Stopwatch watch;
    rig->specs = MixedSpecs(fixture, n);
    itrim::FleetConfig config;
    config.threads = 1;
    config.seed = fixture.seed;
    heap_before = HeapInUse();
    rig->fleet =
        std::make_unique<SessionFleet>(config, std::move(rig->specs.specs));
    const itrim::Status boot = rig->fleet->Bootstrap();
    const size_t heap_booted = HeapInUse();
    itrim::IngestConfig ingest;
    ingest.shards = shape.shards;
    ingest.max_resident_per_shard = shape.max_resident_per_shard;
    rig->service =
        std::make_unique<itrim::IngestService>(ingest, rig->fleet.get());
    const itrim::Status start = boot.ok() ? rig->service->Start() : boot;
    report.setups.push_back(watch.Elapsed());
    if (!start.ok()) {
      report.error = "set-up: " + start.ToString();
      return report;
    }
    report.resident_bytes_per_tenant =
        static_cast<double>(heap_booted - heap_before) / static_cast<double>(n);
  }

  itrim::IngestService& service = *rig->service;
  IngestClient client(&service, n, trace, &report);
  // Warm-up of the workload's own traffic: lanes, queues and session
  // scratch reach steady state, and the process has played long enough to
  // shed the after-idle slowdown before anything is timed.
  if (!client.SubmitRounds(shape.warm_rounds, false, -1) ||
      !client.Flush(false, -1)) {
    return report;
  }

  const size_t first_span = trace != nullptr ? trace->spans().size() : 0;
  const itrim::IngestStats before = service.Stats();
  const uint64_t batches_before = BatchesPopped(service);
  double traced_window_us = 0.0;
  for (size_t w = 0; w < windows; ++w) {
    const bool traced = trace != nullptr && w % 2 == 1;
    const Stopwatch window;
    const int64_t span =
        traced ? trace->Add("window", window.wall_start(), 0) : -1;
    for (size_t done = 0; done < shape.window_rounds;
         done += shape.trip_rounds) {
      const Stopwatch trip;
      if (!client.SubmitRounds(shape.trip_rounds, traced, span) ||
          !client.Flush(traced, span)) {
        return report;
      }
      if (!traced && trips_per_window == 0) {
        report.trips.push_back(trip.Elapsed());
      }
    }
    const Cost cost = window.Elapsed(static_cast<double>(shape.window_rounds));
    RecordWindow(cost, traced, &report);
    if (traced) {
      trace->SetEnd(span, NowNs());
      traced_window_us +=
          cost.wall_us * static_cast<double>(shape.window_rounds);
    }
    // Cold round trips of four consecutive tenants, one of each mixed kind,
    // spread over the run so they see the same machine as the windows.
    for (size_t p = 0; p < trips_per_window; ++p) {
      Cost trip;
      if (!client.ColdTrip(4, traced, &trip)) return report;
      if (!traced) report.trips.push_back(trip);
    }
  }
  const itrim::IngestStats after = service.Stats();
  const uint64_t batches = BatchesPopped(service) - batches_before;
  const uint64_t probed = 4 * windows * trips_per_window;
  report.cold_trip_rounds = probed;
  report.window_rounds = after.rounds_played - before.rounds_played - probed;
  report.reports_admitted =
      after.reports_enqueued - before.reports_enqueued - probed * kRoundSize;
  report.rehydrations = after.rehydrations - before.rehydrations;

  if (trace != nullptr) {
    const std::string p = report.workload + ".";
    const std::string moves = report.workload + "/cpu_us_per_round";
    const std::vector<double> submit =
        DurationsFrom(*trace, first_span, "ingest.SubmitFrame");
    report.layers.push_back({p + "ingest.submit_frame_us.p50",
                             PercentileOf(submit, 0.5).value, "us", moves});
    report.layers.push_back({p + "ingest.submit_frame_us.p90",
                             PercentileOf(submit, 0.9).value, "us", moves});
    const double submit_us =
        std::accumulate(submit.begin(), submit.end(), 0.0);
    report.layers.push_back({p + "ingest.producer_blocked_share",
                             Ratio(submit_us, traced_window_us), "ratio",
                             moves});
    report.layers.push_back(
        {p + "ingest.events_per_batch",
         Ratio(static_cast<double>(after.events_accepted -
                                   before.events_accepted),
               static_cast<double>(batches)),
         "count", moves});
    report.layers.push_back({p + "ingest.rounds_played",
                             static_cast<double>(report.window_rounds),
                             "count", moves});
    report.layers.push_back(
        {p + "ingest.events_rejected",
         static_cast<double>(after.events_rejected - before.events_rejected),
         "count", moves});
    report.layers.push_back(
        {p + "ingest.flush_drain_us",
         Median(DurationsFrom(*trace, first_span, "ingest.Flush")), "us",
         moves});
    report.layers.push_back(
        {p + "ingest.rehydrations_per_round",
         Ratio(static_cast<double>(report.rehydrations),
               static_cast<double>(report.window_rounds + probed)),
         "ratio", moves});
  }

  if (!service.Flush().ok() || !service.Stop().ok()) {
    report.error = "ingest service failed to drain";
    return report;
  }
  rig->service.reset();
  MeasureHibernated(rig->fleet.get(), heap_before, &report);
  if (!report.error.empty()) return report;
  if (trace != nullptr && shape.trips_per_window > 0) {
    report.layers.push_back(
        {report.workload + ".game.checkpoint_records",
         static_cast<double>(report.total_rounds) / static_cast<double>(n),
         "count", report.workload + "/hibernated_bytes_per_tenant"});
  }

  // Exact-work checks.
  const uint64_t expected = windows * shape.window_rounds;
  if (report.window_rounds != expected) {
    report.error = "windows played " + std::to_string(report.window_rounds) +
                   " rounds, expected " + std::to_string(expected);
  } else if (report.reports_admitted != report.window_rounds * kRoundSize) {
    report.error = "rounds played != reports admitted / round_size";
  } else if (report.rehydrations !=
             (shape.expect_rehydration ? report.window_rounds + probed : 0)) {
    report.error = "rehydrations " + std::to_string(report.rehydrations) +
                   " over " + std::to_string(report.window_rounds) +
                   " window rounds and " + std::to_string(probed) +
                   " cold trip rounds";
  } else if (report.total_rounds != shape.warm_rounds + expected + probed) {
    report.error = "tenant books hold " + std::to_string(report.total_rounds) +
                   " rounds, " +
                   std::to_string(shape.warm_rounds + expected + probed) +
                   " were submitted";
  } else {
    report.error = SoloReplayDifference(*rig->fleet, GateSample(n));
  }
  AddOverhead(&report);
  return report;
}

}  // namespace

// steady-mix: 1,000 resident mixed tenants behind two ingest shards; the
// frame-to-record hot path (step, scoring, board, ingest coalescing) over an
// ~80-100 MB resident set. A round trip is one round of every tenant, from
// the first SubmitFrame to Flush() returning, which closes the loop.
WorkloadReport RunSteadyMix(const Fixture& fixture, const RunOptions& options) {
  IngestShape shape;
  shape.name = "steady-mix";
  shape.tenants = 1000;
  shape.shards = 2;
  shape.max_resident_per_shard = 0;
  shape.warm_rounds = 100000;
  shape.window_rounds = 20000;
  shape.trip_rounds = 1000;
  shape.windows_per_second = 3.6;
  shape.min_windows = 5;
  shape.trips_per_window = 0;
  shape.expect_rehydration = false;
  return RunIngest(fixture, shape, options);
}

// cold-churn: the same tenants on one shard with a quarter of them
// resident. Arrivals cycle over the whole fleet, so every timed round
// rehydrates its tenant (re-bootstrap plus record replay) whatever the
// queue batching; one shard keeps the LRU, and so the work, exact. A round
// trip is one cold round of four consecutive tenants, one of each kind:
// single-tenant trips cluster by kind and put p50 between two clusters.
WorkloadReport RunColdChurn(const Fixture& fixture, const RunOptions& options) {
  IngestShape shape;
  shape.name = "cold-churn";
  shape.tenants = 1000;
  shape.shards = 1;
  shape.max_resident_per_shard = 250;
  shape.warm_rounds = 2000;
  shape.window_rounds = 500;
  shape.trip_rounds = 500;
  shape.windows_per_second = 2.4;
  shape.min_windows = 5;
  shape.trips_per_window = 8;
  shape.expect_rehydration = true;
  return RunIngest(fixture, shape, options);
}

// lockstep-fitted: residual tenants trimmed against a per-round refit model
// (the ml refit is ~90% of a step), stepped in lockstep by
// SessionFleet::StepRound at two threads; no ingest, no hibernation. A
// round trip is one StepRound.
WorkloadReport RunLockstepFitted(const Fixture& fixture,
                                 const RunOptions& options) {
  constexpr size_t kTenants = 512;
  constexpr size_t kWarmRounds = 24;
  constexpr size_t kWindowSteps = 8;
  WorkloadReport report;
  report.workload = "lockstep-fitted";
  Trace* trace = options.trace;
  const size_t windows = WindowCount(options.seconds, 1.75, 16);
  report.setups.reserve(kLockstepSetupReps);
  report.windows.reserve(windows);
  report.traced_windows.reserve(windows);
  report.trips.reserve(windows * kWindowSteps);

  FleetSpecs specs;
  std::unique_ptr<SessionFleet> fleet;
  size_t heap_before = 0;
  for (int rep = 0; rep < kLockstepSetupReps; ++rep) {
    fleet.reset();
    specs = FleetSpecs();
    const Stopwatch watch;
    specs = KindSpecs(fixture, Kind::kFitted, kTenants);
    itrim::FleetConfig config;
    config.threads = 2;
    config.seed = fixture.seed;
    heap_before = HeapInUse();
    fleet = std::make_unique<SessionFleet>(config, std::move(specs.specs));
    const itrim::Status boot = fleet->Bootstrap();
    const size_t heap_booted = HeapInUse();
    report.setups.push_back(watch.Elapsed());
    if (!boot.ok()) {
      report.error = "set-up: " + boot.ToString();
      return report;
    }
    report.resident_bytes_per_tenant =
        static_cast<double>(heap_booted - heap_before) / kTenants;
  }

  // One StepRound; `timed` ones land in the trace (traced windows) or in
  // the round-trip samples (untraced windows).
  auto step = [&](bool timed, bool traced, int64_t parent) -> bool {
    ++report.attempted;
    const Stopwatch watch;
    auto aggregate = fleet->StepRound();
    const Cost cost = watch.Elapsed();
    if (!aggregate.ok()) {
      ++report.failed;
      if (report.error.empty()) report.error = aggregate.status().ToString();
      return false;
    }
    if (traced) {
      trace->Add("fleet.StepRound", watch.wall_start(), NowNs(), parent);
    } else if (timed) {
      report.trips.push_back(cost);
    }
    report.reports_admitted += aggregate.ValueOrDie().benign_received;
    return true;
  };

  for (size_t r = 0; r < kWarmRounds; ++r) {
    if (!step(false, false, -1)) return report;
  }
  report.reports_admitted = 0;
  const size_t first_span = trace != nullptr ? trace->spans().size() : 0;
  for (size_t w = 0; w < windows; ++w) {
    const bool traced = trace != nullptr && w % 2 == 1;
    const Stopwatch window;
    const int64_t span =
        traced ? trace->Add("window", window.wall_start(), 0) : -1;
    for (size_t s = 0; s < kWindowSteps; ++s) {
      if (!step(true, traced, span)) return report;
    }
    RecordWindow(window.Elapsed(static_cast<double>(kWindowSteps * kTenants)),
                 traced, &report);
    if (traced) trace->SetEnd(span, NowNs());
  }
  report.window_rounds = windows * kWindowSteps * kTenants;

  if (trace != nullptr) {
    report.layers.push_back(
        {"lockstep-fitted.fleet.step_round_us",
         Median(DurationsFrom(*trace, first_span, "fleet.StepRound")), "us",
         "lockstep-fitted/trip_cpu_p50_us"});
  }
  if (!fleet->BeginPerTenantStepping().ok()) {
    report.error = "per-tenant mode refused";
    return report;
  }
  MeasureHibernated(fleet.get(), heap_before, &report);
  if (!report.error.empty()) return report;

  if (report.reports_admitted != report.window_rounds * kRoundSize) {
    report.error = "rounds played != benign reports received / round_size";
  } else if (report.total_rounds !=
             (kWarmRounds + windows * kWindowSteps) * kTenants) {
    report.error =
        "tenant books hold " + std::to_string(report.total_rounds) + " rounds";
  } else {
    report.error = SoloReplayDifference(*fleet, GateSample(kTenants));
  }
  AddOverhead(&report);
  return report;
}

}  // namespace paperbench
