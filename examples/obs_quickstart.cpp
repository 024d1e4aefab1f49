// Observability quickstart: instrument a fleet, scrape it, export it.
//
// The src/obs/ layer is write-only telemetry over the game engine: sessions
// and fleets record into preallocated metric slots and a fixed-capacity
// trace ring, and a scraper merges those atomics into a snapshot whenever it
// likes. Nothing here reads back into the game — the instrumented run below
// produces the same bytes it would produce with no sinks attached (and the
// whole layer compiles out under -DITRIM_OBS=OFF; this program still builds
// and runs there, it just scrapes zeros).
//
// Here: an 8-tenant scalar fleet with a fleet-level slot, one shared
// session-level slot, and a trace ring attached; a ScrapeSampler polling in
// the background while rounds play; then one final scrape exported three
// ways — Prometheus text (tools/promlint.py lints it), BENCH-style metrics
// JSON, and the trace JSON that tools/trace_dump.py renders as per-tenant
// round timelines.
#include <chrono>
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "fleet/session_fleet.h"
#include "game/kernels.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"

int main() {
  using namespace itrim;

  Rng rng(7);
  std::vector<double> pool;
  for (int i = 0; i < 5000; ++i) pool.push_back(rng.Uniform());

  std::vector<TenantSpec> specs;
  for (size_t i = 0; i < 8; ++i) {
    TenantSpec spec;
    spec.name = "tenant-" + std::to_string(i);
    spec.model = TenantModelKind::kScalar;
    spec.scalar_pool = &pool;
    spec.scheme = (i % 2 == 0) ? SchemeId::kElastic05 : SchemeId::kTitfortat;
    spec.game.round_size = 200;
    spec.game.bootstrap_size = 200;
    spec.game.attack_ratio = 0.1 + 0.05 * static_cast<double>(i % 4);
    specs.push_back(spec);
  }

  FleetConfig config;
  config.rounds = 10;
  config.seed = 2024;

  // The sinks. A registry owns labelled slots (one per writer domain); the
  // trace ring holds the last 256 game events. Both must outlive the fleet
  // they are attached to.
  obs::MetricsRegistry registry;
  registry.SetInfo("kernel", kernels::VariantName(kernels::ActiveVariant()));
  obs::MetricSlot* fleet_slot = registry.AddSlot("fleet");
  obs::MetricSlot* session_slot = registry.AddSlot("sessions");
  obs::TraceBuffer trace(/*capacity=*/256);

  SessionFleet fleet(config, specs);
  fleet.AttachObservability(fleet_slot);  // fleet round gauges + wall times
  if (Status s = fleet.Bootstrap(); !s.ok()) {
    std::fprintf(stderr, "bootstrap failed: %s\n", s.ToString().c_str());
    return 1;
  }
  // Tenant sessions exist once the fleet is bootstrapped; attach their sinks
  // now (they survive hibernation/rehydration from here on).
  for (size_t i = 0; i < specs.size(); ++i) {
    SessionObs sinks;
    sinks.metrics = session_slot;  // per-round counters (shared slot is fine)
    sinks.trace = &trace;          // round/trim events, stamped per tenant
    sinks.tenant = i;
    if (Status s = fleet.AttachTenantObservability(i, sinks); !s.ok()) {
      std::fprintf(stderr, "attach failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // A background scraper, polling every 20 ms. It only reads published
  // atomics, so it cannot perturb the rounds it races.
  uint64_t live_rounds_seen = 0;
  obs::ScrapeSampler sampler(
      &registry, std::chrono::milliseconds(20),
      [&](const obs::MetricsSnapshot& snap) {
        live_rounds_seen =
            snap.merged.counters[static_cast<int>(
                obs::Counter::kSessionRoundsPlayed)];
      });
  (void)sampler.Start();

  for (int round = 1; round <= config.rounds; ++round) {
    if (auto agg = fleet.StepRound(); !agg.ok()) {
      std::fprintf(stderr, "round %d failed: %s\n", round,
                   agg.status().ToString().c_str());
      return 1;
    }
  }
  sampler.Stop();  // joins after one final flush sample

  // One authoritative scrape, then the three export formats.
  obs::MetricsSnapshot snap = registry.Scrape();
  const auto counter = [&](obs::Counter c) {
    return snap.merged.counters[static_cast<int>(c)];
  };
  std::printf("sampler took %llu snapshots (last live view: %llu rounds)\n",
              static_cast<unsigned long long>(sampler.samples()),
              static_cast<unsigned long long>(live_rounds_seen));
  std::printf("rounds played      %llu\n",
              static_cast<unsigned long long>(
                  counter(obs::Counter::kSessionRoundsPlayed)));
  std::printf("observations kept  %llu benign, %llu poison\n",
              static_cast<unsigned long long>(
                  counter(obs::Counter::kSessionBenignKept)),
              static_cast<unsigned long long>(
                  counter(obs::Counter::kSessionPoisonKept)));
  std::printf("trimmed            %llu\n",
              static_cast<unsigned long long>(
                  counter(obs::Counter::kSessionObservationsTrimmed)));

  std::string prom = obs::PrometheusText(snap);
  std::string metrics_json = obs::MetricsJson(snap);
  std::vector<obs::TraceEvent> events;
  trace.Snapshot(&events);
  std::string trace_json = obs::TracesJson(events, trace.dropped());
  std::printf("\nexports: %zu bytes Prometheus text, %zu bytes metrics "
              "JSON,\n         %zu trace events (%llu overwritten by ring "
              "wrap)\n",
              prom.size(), metrics_json.size(), events.size(),
              static_cast<unsigned long long>(trace.dropped()));

  if (obs::WriteTextFile("obs_scrape.prom", prom).ok() &&
      obs::WriteTextFile("obs_trace.json", trace_json).ok()) {
    std::printf("\nwrote obs_scrape.prom and obs_trace.json — try:\n"
                "  python3 tools/promlint.py obs_scrape.prom\n"
                "  python3 tools/trace_dump.py --tenant 0 obs_trace.json\n");
  }
  return 0;
}
