// Checkpoint support of the event engine (see docs/RECOVERY.md): the
// fingerprint of a run's immutable inputs, and the canonical byte form of a
// SimulationReport used by the byte-identity tests and the CI
// kill-and-resume diff.

#pragma once

#include <cstdint>
#include <vector>

#include "src/recover/checkpoint.h"
#include "src/sim/simulator.h"

namespace cdn::sim {

/// Canonical byte serialisation of a report: every double as its exact bit
/// pattern, every counter, the full latency distribution and per-server
/// cache statistics.  Two reports are byte-identical iff these buffers are.
std::vector<std::uint8_t> serialize_report(const SimulationReport& report);

/// FNV-1a digest of serialize_report() — a printable identity for CI diffs.
std::uint64_t report_digest(const SimulationReport& report);

namespace detail {

/// Computes the named fingerprint sections of one run: "config", "system",
/// "placement", "faults" and "engine" (the event_shape: one reference shard
/// or S substream shards — the thread count never affects a result bit,
/// so it is left out).  Resume recomputes these and lets
/// recover::check_fingerprint diff them against the file's.
std::vector<recover::FingerprintSection> checkpoint_fingerprint(
    const sys::CdnSystem& system, const placement::PlacementResult& result,
    const SimulationConfig& config);

}  // namespace detail
}  // namespace cdn::sim
