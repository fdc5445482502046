// Line protocol of the daemon's control socket, for live reconfiguration.
//
// A second TCP listener (loopback by default) accepting operator commands,
// one per line, each answered with exactly one OK/ERR line:
//
//   RELOAD placement <path>\n   validate off the hot path, swap on success
//                               → OK generation=<g> digest=<hex>\n
//                               → ERR <line/col diagnostic>\n   (old config
//                                 keeps serving, generation unchanged)
//   RELOAD endpoints <path>\n   same contract for the endpoint map
//   STATUS\n                    → OK generation=<g> placement_digest=<hex>
//                                 endpoints_digest=<hex> requests=<n>
//                                 inflight=<n> sessions=<n> reloads=<n>
//                                 reload_failures=<n> draining=<0|1>\n
//   DRAIN\n                     → OK draining\n, then the daemon drains
//
// Commands on one connection are answered strictly in order; a RELOAD
// keeps the connection busy until its background validation completes
// (further pipelined commands queue).  Malformed commands get an ERR with
// a line/col diagnostic and the session survives; a line longer than
// kMaxControlLine gets an ERR and the session is closed (a broken or
// hostile client).  The daemon serves the socket with the same
// net::LineServer as its data socket, so the same read, queue and output
// caps apply.  The rc_* adversarial corpus holds the regression inputs.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/redirectd/reload.h"

namespace cdn::redirectd {

/// Hard cap on an inbound control line (including '\n').  Generous — it
/// must fit a filesystem path — but bounded: the session buffer cannot be
/// grown without limit by a client that never sends a newline.
inline constexpr std::size_t kMaxControlLine = 4096;

struct ControlCommand {
  enum class Verb : std::uint8_t { kStatus, kDrain, kReload };
  Verb verb = Verb::kStatus;
  ReloadKind reload_kind = ReloadKind::kPlacement;  // kReload only
  std::string path;                                 // kReload only
};

/// Parses one control line ('\n' / '\r\n' optional).  Throws
/// PreconditionError with a line/col diagnostic on any malformed input:
/// unknown verb, missing/trailing fields, unknown reload target, or a line
/// longer than kMaxControlLine.
ControlCommand parse_control_command(std::string_view line);

}  // namespace cdn::redirectd
