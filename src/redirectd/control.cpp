#include "src/redirectd/control.h"

#include "src/util/error.h"
#include "src/util/text_parse.h"

namespace cdn::redirectd {

ControlCommand parse_control_command(std::string_view line) {
  CDN_EXPECT(line.size() <= kMaxControlLine,
             "control command line exceeds " +
                 std::to_string(kMaxControlLine) + " bytes (" +
                 std::to_string(line.size()) + ")");
  util::LineTokens tokens(util::strip_eol(line), "control command", 1);
  const std::string_view verb = tokens.expect("a control verb");
  ControlCommand command;
  if (verb == "STATUS") {
    command.verb = ControlCommand::Verb::kStatus;
    tokens.done();
  } else if (verb == "DRAIN") {
    command.verb = ControlCommand::Verb::kDrain;
    tokens.done();
  } else if (verb == "RELOAD") {
    command.verb = ControlCommand::Verb::kReload;
    const std::string_view target =
        tokens.expect("'placement' or 'endpoints'");
    if (target == "placement") {
      command.reload_kind = ReloadKind::kPlacement;
    } else if (target == "endpoints") {
      command.reload_kind = ReloadKind::kEndpoints;
    } else {
      CDN_EXPECT(false, tokens.last_where() + ": unknown reload target '" +
                            std::string(target) +
                            "' (expected 'placement' or 'endpoints')");
    }
    command.path = tokens.expect("a file path");
    tokens.done();
  } else {
    CDN_EXPECT(false, tokens.last_where() + ": unknown control verb '" +
                          std::string(verb) +
                          "' (expected RELOAD, STATUS, or DRAIN)");
  }
  return command;
}

}  // namespace cdn::redirectd
