// Experiment harness: run several content-delivery mechanisms on one
// scenario, simulate each, and report the paper's metrics side by side
// (response-time CDFs, means, hop costs, predicted-vs-measured).

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/core/scenario.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/placement/placement_result.h"
#include "src/sim/simulator.h"
#include "src/util/cdf.h"
#include "src/util/table.h"

namespace cdn::core {

/// A named placement strategy to evaluate.
struct MechanismSpec {
  std::string name;
  std::function<placement::PlacementResult(const sys::CdnSystem&)> build;
};

/// Standard mechanisms of the paper's evaluation.  Passing a registry makes
/// the placement stage log its per-iteration records under
/// "placement/<name>/" (mechanisms without tunable placement internals
/// ignore it); passing a span tracer makes it emit iteration spans under
/// the same prefix.
MechanismSpec replication_mechanism(obs::Registry* metrics = nullptr,
                                    obs::SpanTracer* spans = nullptr);
MechanismSpec caching_mechanism();
MechanismSpec hybrid_mechanism(obs::Registry* metrics = nullptr,
                               obs::SpanTracer* spans = nullptr);

/// Loud-but-not-fatal coherence note for the CLI: "" for
/// --hit-model=empirical, which reads the exact Eq. 1/Eq. 2 model hybrid
/// placement is priced with; otherwise a one-line warning that the
/// placement ranking and the simulated hit ratios use different model
/// tiers.  Mixing is allowed — the combination is well-defined — it just
/// should never happen silently.
std::string model_tier_mismatch_note(const std::string& hit_model);
/// Ad-hoc fixed split with the given cache share (0.2 / 0.8 in Figure 5).
MechanismSpec fixed_split_mechanism(double cache_fraction);

/// Placement + simulation outcome of one mechanism.
struct MechanismRun {
  std::string name;
  placement::PlacementResult placement;
  sim::SimulationReport report;
};

/// Runs every mechanism on the scenario with a shared simulation
/// configuration (same seed => same request stream for all mechanisms).
///
/// When `metrics` is non-null it overrides sim_config.metrics and each
/// mechanism's simulation logs under "sim/<name>/"; build/simulate wall
/// times land under "experiment/<name>/".  When `trace` is non-null every
/// mechanism's sampled request events are recorded into it, labelled with
/// a per-mechanism context.  When `spans` is non-null each mechanism gets
/// "experiment/<name>/build" and ".../simulate" spans and the simulator's
/// phase spans are recorded into the same tracer.
std::vector<MechanismRun> run_mechanisms(
    const Scenario& scenario, const std::vector<MechanismSpec>& mechanisms,
    const sim::SimulationConfig& sim_config, obs::Registry* metrics = nullptr,
    obs::TraceSink* trace = nullptr, obs::SpanTracer* spans = nullptr);

/// Summary table: mean / median / p90 / p99 latency, local ratio, measured
/// hop cost, model-predicted hop cost, replica count.
util::TextTable summary_table(const std::vector<MechanismRun>& runs);

/// Response-time CDFs of all runs on a shared latency grid (ms) — the
/// textual rendering of the paper's Figures 3-5 panels.
std::string cdf_table(const std::vector<MechanismRun>& runs,
                      std::size_t grid_points = 25);

/// Relative mean-latency gain of `candidate` over `baseline` in percent
/// (positive = candidate is faster).
double mean_latency_gain_percent(const MechanismRun& baseline,
                                 const MechanismRun& candidate);

}  // namespace cdn::core
