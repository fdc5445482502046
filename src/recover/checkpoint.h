// Crash-safe checkpoint files (see docs/RECOVERY.md).
//
// A checkpoint is one self-describing file holding everything a
// deterministic simulation is a function of mid-run: a fingerprint of the
// immutable inputs (config, system, placement, fault schedule, engine
// shape) as named 64-bit hashes, plus an opaque payload of the engine's
// mutable state.  The file is written atomically — serialised to
// `<path>.tmp`, flushed, then renamed over `<path>` — so a crash mid-write
// can never leave a half-written file at the target path, and it ends with
// an FNV-1a trailer over every preceding byte so a torn or corrupted file
// is rejected with a clean PreconditionError, never parsed.
//
// Resume refuses a checkpoint whose fingerprint disagrees with the present
// run and names exactly which sections changed, so "I resumed with a
// different seed" is a one-line diagnosis instead of silent nonsense.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/util/serial.h"

namespace cdn::recover {

/// File format version; bump on any layout change.
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// Process exit code of a run that was interrupted by SIGINT/SIGTERM and
/// flushed a final checkpoint (EX_TEMPFAIL: rerun with --resume to finish).
inline constexpr int kInterruptedExitCode = 75;

/// One named fingerprint section: a hash of an immutable input domain.
using FingerprintSection = std::pair<std::string, std::uint64_t>;

/// In-memory form of a checkpoint file.
struct Checkpoint {
  std::vector<FingerprintSection> fingerprint;
  std::vector<std::uint8_t> payload;
};

/// Serialises `ckpt` and writes it atomically to `path` (tmp + rename).
/// Returns the file size in bytes.  Throws PreconditionError on I/O error,
/// and, writing nothing, when `path` exists but is not a regular file.
std::uint64_t write_file(const std::string& path, const Checkpoint& ckpt);

/// Reads and validates a checkpoint file: size, checksum trailer, magic,
/// version, framing.  Every corruption mode (truncation, bit flips, torn
/// writes, wrong file type) throws PreconditionError with a description.
Checkpoint read_file(const std::string& path);

/// Verifies that the checkpoint's fingerprint matches `expected` exactly.
/// On mismatch throws PreconditionError listing every section that changed,
/// was added, or disappeared.
void check_fingerprint(const Checkpoint& ckpt,
                       const std::vector<FingerprintSection>& expected);

/// Thrown by the simulation engines after a stop request has been honoured
/// and the final checkpoint (if configured) flushed.  The CLI catches it,
/// writes the metric/trace exports, and exits with kInterruptedExitCode.
class Interrupted : public std::runtime_error {
 public:
  Interrupted(std::uint64_t request_index, std::string checkpoint_path)
      : std::runtime_error(
            "simulation interrupted at request " +
            std::to_string(request_index) +
            (checkpoint_path.empty()
                 ? std::string(" (no checkpoint path configured)")
                 : "; checkpoint written to " + checkpoint_path)),
        request_index_(request_index),
        checkpoint_path_(std::move(checkpoint_path)) {}

  std::uint64_t request_index() const noexcept { return request_index_; }
  const std::string& checkpoint_path() const noexcept {
    return checkpoint_path_;
  }

 private:
  std::uint64_t request_index_;
  std::string checkpoint_path_;
};

}  // namespace cdn::recover
