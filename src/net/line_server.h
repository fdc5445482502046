// One TCP listener and its line sessions: the transport under both of the
// redirector daemon's sockets (requests and control commands).
//
// A session is a byte stream of '\n'-terminated lines, answered strictly in
// order.  The server owns everything between the socket and one line; the
// owner only sees whole lines and answers them:
//
//   * reads are bounded per dispatch (kReadChunks reads of kReadChunk
//     bytes): a client writing faster than the owner answers must not pin
//     one loop iteration and starve every other session, the timers and
//     the prober.  poll(2) is level-triggered, so unread bytes re-deliver
//     on the next pass, after everyone else has had their turn;
//   * a partial line longer than `max_line` gets `line_cap_reply`, and the
//     session closes once that reply is flushed (a broken or hostile
//     client);
//   * queued input is bounded too: a session holding a dispatch's worth of
//     unanswered lines (kReadBudget bytes) stops reading until the queue
//     shrinks, so a client pipelining behind a held line meets TCP
//     back-pressure, not daemon memory;
//   * output the kernel refused waits in the session's outbuf; past
//     `max_outbuf` the reader is too slow and the session is closed (a
//     slow-reader close) instead of buffering without bound;
//   * a line the owner cannot answer at once holds its session (hold());
//     later lines queue until release(), so answers keep request order.
//     Async answers address their session by SessionId, which is never
//     reused, unlike an fd number;
//   * at EOF the queued lines are still answered, then the session closes;
//     on a socket error it closes at once;
//   * drain() stops accepting, drops queued lines, closes idle sessions and
//     lets held ones close after their answer.
//
// Everything runs on the owner's EventLoop thread.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/net/event_loop.h"
#include "src/net/socket.h"

namespace cdn::net {

/// Names one session for its lifetime; ids are never reused.
using SessionId = std::uint64_t;

class LineServer {
 public:
  static constexpr std::size_t kReadChunk = 4096;
  static constexpr int kReadChunks = 4;
  /// One dispatch's worth of input; also the cap on queued lines.
  static constexpr std::size_t kReadBudget = kReadChunk * kReadChunks;

  struct Limits {
    /// Longest partial line buffered, '\n' included.
    std::size_t max_line;
    /// Unflushed output tolerated before a slow-reader close.
    std::size_t max_outbuf;
    /// Sent before closing a session whose line passed `max_line`.
    std::string line_cap_reply;
  };

  enum class Cap : std::uint8_t { kLine, kOutbuf };

  struct Hooks {
    /// One complete line, '\n' included, in arrival order.  `line` points
    /// into the session's buffer: parse it before replying.
    std::function<void(SessionId, std::string_view line)> line;
    /// Optional: a session hit a cap and is being closed.
    std::function<void(Cap)> capped;
  };

  LineServer(EventLoop& loop, Limits limits, Hooks hooks);

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Binds the listener and starts accepting.  Throws PreconditionError
  /// when the address cannot be bound.
  void listen(const std::string& host, std::uint16_t port);
  /// The bound port; 0 before listen().
  std::uint16_t port() const noexcept { return listener_.port(); }

  /// Queues `text` for the session and writes what the kernel takes.  A
  /// no-op for a closed session.
  void reply(SessionId id, std::string_view text);
  /// The line just delivered will be answered later: later lines wait.
  void hold(SessionId id);
  /// Ends a hold (after its reply()) and answers the queued lines.
  void release(SessionId id);

  bool open(SessionId id) const { return sessions_.count(id) != 0; }
  std::size_t session_count() const noexcept { return sessions_.size(); }

  /// Stops accepting and closes sessions as they go idle.  `on_empty`, if
  /// set, runs once no session is left.
  void drain(std::function<void()> on_empty);

 private:
  struct Session {
    Fd fd;
    /// [head, complete) holds queued lines, [complete, end) a partial one.
    std::string inbuf;
    std::size_t head = 0;
    std::size_t complete = 0;
    std::string outbuf;
    std::uint32_t interest = kReadable;
    bool held = false;     // a delivered line's answer is pending
    bool closing = false;  // no more input; close once answered and flushed

    bool reading() const {
      return !closing && complete - head < kReadBudget;
    }
  };

  Session* find(SessionId id);
  void accept();
  void on_event(SessionId id, std::uint32_t events);
  /// Reads one dispatch's worth; false when the session was closed.
  bool read_input(SessionId id, Session& s);
  void process(SessionId id, Session& s);
  /// Writes the outbuf; false when the session was closed.
  bool flush(SessionId id, Session& s);
  /// Closes an idle closing session, else refreshes its interest mask.
  void settle(SessionId id, Session& s);
  void close(SessionId id);

  EventLoop& loop_;
  Limits limits_;
  Hooks hooks_;
  TcpListener listener_;
  std::unordered_map<SessionId, Session> sessions_;
  SessionId next_id_ = 1;
  std::function<void()> on_empty_;
};

}  // namespace cdn::net
