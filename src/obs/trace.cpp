#include "src/obs/trace.h"

#include <sstream>

#include "src/obs/json_writer.h"
#include "src/util/error.h"

namespace cdn::obs {

const char* to_string(EventCause cause) noexcept {
  switch (cause) {
    case EventCause::kReplica: return "replica";
    case EventCause::kCacheHit: return "cache-hit";
    case EventCause::kCacheMiss: return "cache-miss";
    case EventCause::kStaleRefresh: return "stale-refresh";
    case EventCause::kUncacheable: return "uncacheable";
    case EventCause::kFailover: return "failover";
    case EventCause::kFailed: return "failed";
  }
  return "unknown";
}

TraceSink::TraceSink(double sample_rate, std::uint64_t seed,
                     std::size_t max_events)
    : sample_rate_(sample_rate), max_events_(max_events), rng_(seed) {
  CDN_EXPECT(sample_rate >= 0.0 && sample_rate <= 1.0,
             "trace sample rate must be in [0, 1]");
  CDN_EXPECT(max_events >= 1, "trace sink needs room for at least one event");
  contexts_.push_back("");  // default context
}

void TraceSink::record(const TraceEvent& event) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(event);
  event_context_.push_back(
      static_cast<std::uint16_t>(contexts_.size() - 1));
}

std::uint16_t TraceSink::begin_context(const std::string& name) {
  CDN_EXPECT(contexts_.size() < 0xffff, "too many trace contexts");
  contexts_.push_back(name);
  return static_cast<std::uint16_t>(contexts_.size() - 1);
}

std::string TraceSink::csv() const {
  std::ostringstream out;
  out << "context,t,server,site,rank,cause,served_by,measured,hops,"
         "latency_ms\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    out << contexts_[event_context_[i]] << ',' << e.t << ',' << e.server
        << ',' << e.site << ',' << e.rank << ',' << to_string(e.cause) << ','
        << e.served_by << ',' << (e.measured ? 1 : 0) << ','
        << json_double(e.hops) << ',' << json_double(e.latency_ms) << '\n';
  }
  return out.str();
}

void TraceSink::write_csv(const std::string& path) const {
  util::write_file(path, csv(), "trace output file");
}

void TraceSink::save_state(util::ByteWriter& w) const {
  w.f64(sample_rate_);
  w.u64(max_events_);
  for (const std::uint64_t word : rng_.state()) w.u64(word);
  w.u64(contexts_.size());
  for (const std::string& c : contexts_) w.str(c);
  w.u64(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    w.u64(e.t);
    w.u32(e.server);
    w.u32(e.site);
    w.u32(e.rank);
    w.u8(static_cast<std::uint8_t>(e.cause));
    w.u32(static_cast<std::uint32_t>(e.served_by));
    w.u8(e.measured ? 1 : 0);
    w.f64(e.hops);
    w.f64(e.latency_ms);
    w.u32(event_context_[i]);
  }
  w.u64(dropped_);
}

void TraceSink::restore_state(util::ByteReader& r) {
  sample_rate_ = r.f64();
  CDN_EXPECT(sample_rate_ >= 0.0 && sample_rate_ <= 1.0,
             "trace sample rate must be in [0, 1]");
  max_events_ = static_cast<std::size_t>(r.u64());
  CDN_EXPECT(max_events_ >= 1, "trace sink needs room for at least one event");
  std::array<std::uint64_t, 4> state;
  for (auto& word : state) word = r.u64();
  rng_.set_state(state);
  const std::uint64_t context_count = r.u64();
  CDN_EXPECT(context_count >= 1 && context_count <= 0xffff,
             "trace context count out of range");
  contexts_.clear();
  for (std::uint64_t i = 0; i < context_count; ++i) contexts_.push_back(r.str());
  const std::uint64_t n = r.u64();
  r.need(n * 42, "trace events");
  events_.clear();
  event_context_.clear();
  events_.reserve(static_cast<std::size_t>(n));
  event_context_.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    TraceEvent e;
    e.t = r.u64();
    e.server = r.u32();
    e.site = r.u32();
    e.rank = r.u32();
    const std::uint8_t cause = r.u8();
    CDN_EXPECT(cause < kEventCauseCount, "trace event cause out of range");
    e.cause = static_cast<EventCause>(cause);
    e.served_by = static_cast<std::int32_t>(r.u32());
    e.measured = r.u8() != 0;
    e.hops = r.f64();
    e.latency_ms = r.f64();
    events_.push_back(e);
    const std::uint32_t ctx = r.u32();
    CDN_EXPECT(ctx < context_count, "trace event context out of range");
    event_context_.push_back(static_cast<std::uint16_t>(ctx));
  }
  dropped_ = r.u64();
}

}  // namespace cdn::obs
