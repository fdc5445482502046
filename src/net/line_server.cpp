#include "src/net/line_server.h"

#include <utility>
#include <vector>

namespace cdn::net {

LineServer::LineServer(EventLoop& loop, Limits limits, Hooks hooks)
    : loop_(loop), limits_(std::move(limits)), hooks_(std::move(hooks)) {}

void LineServer::listen(const std::string& host, std::uint16_t port) {
  listener_ = TcpListener::bind(host, port);
  loop_.add_fd(listener_.fd(), kReadable, [this](std::uint32_t) { accept(); });
}

LineServer::Session* LineServer::find(SessionId id) {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

void LineServer::accept() {
  while (auto fd = listener_.accept()) {
    const SessionId id = next_id_++;
    const int raw = fd->get();
    sessions_[id].fd = std::move(*fd);
    loop_.add_fd(raw, kReadable,
                 [this, id](std::uint32_t events) { on_event(id, events); });
  }
}

void LineServer::on_event(SessionId id, std::uint32_t events) {
  Session* s = find(id);
  if (s == nullptr) return;
  if ((events & kErrored) != 0) {
    close(id);
    return;
  }
  if ((events & kWritable) != 0 && !flush(id, *s)) return;
  if ((events & kReadable) != 0 && s->reading()) {
    if (!read_input(id, *s)) return;
    process(id, *s);
    if ((s = find(id)) == nullptr) return;
  }
  settle(id, *s);
}

bool LineServer::read_input(SessionId id, Session& s) {
  if (s.head > 0) {  // answered lines leave before new input arrives
    s.inbuf.erase(0, s.head);
    s.complete -= s.head;
    s.head = 0;
  }
  char buf[kReadChunk];
  for (int chunk = 0; chunk < kReadChunks && s.reading(); ++chunk) {
    const IoResult r = read_some(s.fd.get(), buf, sizeof(buf));
    if (r.status == IoStatus::kWouldBlock) break;
    if (r.status == IoStatus::kClosed) {
      s.closing = true;  // answer what is queued, then close
      break;
    }
    if (r.status == IoStatus::kError) {
      // The peer is gone.  A held line still gets its (undeliverable)
      // answer so the owner accounts it; nothing else is answerable.
      if (!s.held) {
        close(id);
        return false;
      }
      s.closing = true;
      s.head = s.complete;
      break;
    }
    s.inbuf.append(buf, r.bytes);
    const std::size_t nl = s.inbuf.rfind('\n');
    if (nl != std::string::npos && nl >= s.complete) s.complete = nl + 1;
    if (s.inbuf.size() - s.complete > limits_.max_line) {
      // No newline within the cap: a broken or hostile client.  Queued
      // lines are dropped with it.
      s.closing = true;
      s.inbuf.clear();
      s.head = s.complete = 0;
      if (hooks_.capped) hooks_.capped(Cap::kLine);
      reply(id, limits_.line_cap_reply);
      return find(id) != nullptr;
    }
  }
  return true;
}

void LineServer::process(SessionId id, Session& s) {
  // A handler may reply (and so close the session) or release a hold that
  // re-enters here; `s` stays valid while the id is live, and only
  // read_input() moves the bytes `line` points at.
  while (!s.held && s.head < s.complete) {
    const std::size_t end = s.inbuf.find('\n', s.head) + 1;
    const std::string_view line(s.inbuf.data() + s.head, end - s.head);
    s.head = end;
    hooks_.line(id, line);
    if (!open(id)) return;
  }
}

void LineServer::reply(SessionId id, std::string_view text) {
  Session* s = find(id);
  if (s == nullptr) return;
  s->outbuf.append(text);
  if (!flush(id, *s)) return;
  if (s->outbuf.size() > limits_.max_outbuf) {
    // The reader is slower than its answer stream; unbounded buffering
    // would trade one slow client for daemon memory.  Disconnect it.
    if (hooks_.capped) hooks_.capped(Cap::kOutbuf);
    close(id);
    return;
  }
  settle(id, *s);
}

bool LineServer::flush(SessionId id, Session& s) {
  while (!s.outbuf.empty()) {
    const IoResult r = write_some(s.fd.get(), s.outbuf.data(), s.outbuf.size());
    if (r.status == IoStatus::kOk) {
      s.outbuf.erase(0, r.bytes);
      continue;
    }
    if (r.status == IoStatus::kWouldBlock) break;
    // The peer is gone; nothing left to deliver or to answer.
    s.outbuf.clear();
    if (!s.held) {
      close(id);
      return false;
    }
    s.closing = true;
    s.head = s.complete;
    break;
  }
  return true;
}

void LineServer::settle(SessionId id, Session& s) {
  if (s.closing && !s.held && s.head == s.complete && s.outbuf.empty()) {
    close(id);
    return;
  }
  const std::uint32_t want =
      (s.reading() ? kReadable : 0u) | (s.outbuf.empty() ? 0u : kWritable);
  if (want != s.interest) {
    loop_.set_interest(s.fd.get(), want);
    s.interest = want;
  }
}

void LineServer::hold(SessionId id) {
  if (Session* s = find(id)) s->held = true;
}

void LineServer::release(SessionId id) {
  Session* s = find(id);
  if (s == nullptr) return;
  s->held = false;
  process(id, *s);
  if ((s = find(id)) != nullptr) settle(id, *s);
}

void LineServer::close(SessionId id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  const int fd = it->second.fd.get();
  if (loop_.has_fd(fd)) loop_.remove_fd(fd);
  sessions_.erase(it);
  if (on_empty_ && sessions_.empty()) on_empty_();
}

void LineServer::drain(std::function<void()> on_empty) {
  if (listener_.valid()) {
    if (loop_.has_fd(listener_.fd())) loop_.remove_fd(listener_.fd());
    listener_.close();
  }
  // Drain finishes what is in flight, not the backlog: queued lines that
  // have not started are dropped.
  std::vector<SessionId> ids;
  ids.reserve(sessions_.size());
  for (auto& [id, s] : sessions_) {
    s.closing = true;
    s.head = s.complete;
    ids.push_back(id);
  }
  for (const SessionId id : ids) {
    if (Session* s = find(id)) settle(id, *s);
  }
  on_empty_ = std::move(on_empty);
  if (on_empty_ && sessions_.empty()) on_empty_();
}

}  // namespace cdn::net
