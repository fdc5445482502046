#include "src/fault/fault_schedule.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>

#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/util/serial.h"
#include "src/util/text_parse.h"

namespace cdn::fault {

namespace {

void check_interval(std::uint64_t begin, std::uint64_t end) {
  CDN_EXPECT(begin < end, "fault interval must satisfy begin < end");
}

}  // namespace

void FaultSchedule::add_server_outage(std::uint32_t server,
                                      std::uint64_t begin, std::uint64_t end) {
  check_interval(begin, end);
  server_outages_.push_back({server, begin, end});
}

void FaultSchedule::add_origin_outage(std::uint32_t site, std::uint64_t begin,
                                      std::uint64_t end) {
  check_interval(begin, end);
  origin_outages_.push_back({site, begin, end});
}

void FaultSchedule::add_link_degradation(std::uint32_t server,
                                         std::uint64_t begin,
                                         std::uint64_t end,
                                         double latency_multiplier) {
  check_interval(begin, end);
  CDN_EXPECT(std::isfinite(latency_multiplier) && latency_multiplier >= 1.0,
             "link degradation multiplier must be finite and >= 1");
  link_degradations_.push_back({server, begin, end, latency_multiplier});
}

void FaultSchedule::add_demand_surge(std::uint32_t site, std::uint64_t begin,
                                     std::uint64_t end, double multiplier) {
  check_interval(begin, end);
  CDN_EXPECT(std::isfinite(multiplier) && multiplier >= 1.0,
             "demand surge multiplier must be finite and >= 1");
  demand_surges_.push_back({site, begin, end, multiplier});
}

void FaultSchedule::validate(std::size_t server_count,
                             std::size_t site_count) const {
  for (const auto& o : server_outages_) {
    CDN_EXPECT(o.target < server_count,
               "server outage references an out-of-range server");
  }
  for (const auto& o : origin_outages_) {
    CDN_EXPECT(o.target < site_count,
               "origin outage references an out-of-range site");
  }
  for (const auto& d : link_degradations_) {
    CDN_EXPECT(d.server < server_count,
               "link degradation references an out-of-range server");
  }
  for (const auto& s : demand_surges_) {
    CDN_EXPECT(s.site < site_count,
               "demand surge references an out-of-range site");
  }
}

FaultSchedule FaultSchedule::random(std::size_t server_count,
                                    std::size_t site_count,
                                    std::uint64_t horizon,
                                    const RandomFaultParams& params) {
  CDN_EXPECT(params.mtbf_requests > 0.0, "MTBF must be positive");
  CDN_EXPECT(params.mttr_requests > 0.0, "MTTR must be positive");
  CDN_EXPECT(params.origin_mtbf_scale >= 0.0,
             "origin MTBF scale must be non-negative");
  FaultSchedule schedule;
  util::Rng base(params.seed);

  const auto exponential = [](util::Rng& rng, double mean) {
    // Inverse CDF; uniform() < 1 keeps the log argument positive.
    return -mean * std::log(1.0 - rng.uniform());
  };
  const auto renewal = [&](util::Rng rng, double mtbf, double mttr,
                           auto&& emit) {
    double t = exponential(rng, mtbf);  // first failure after an up phase
    while (t < static_cast<double>(horizon)) {
      const double down = exponential(rng, mttr);
      const auto begin = static_cast<std::uint64_t>(t);
      auto end = static_cast<std::uint64_t>(t + down);
      if (end <= begin) end = begin + 1;  // sub-request outages still count
      emit(begin, std::min<std::uint64_t>(end, horizon));
      t = static_cast<double>(end) + exponential(rng, mtbf);
    }
  };

  for (std::size_t i = 0; i < server_count; ++i) {
    renewal(base.fork(i), params.mtbf_requests, params.mttr_requests,
            [&](std::uint64_t b, std::uint64_t e) {
              schedule.add_server_outage(static_cast<std::uint32_t>(i), b, e);
            });
  }
  if (params.origin_mtbf_scale > 0.0) {
    for (std::size_t j = 0; j < site_count; ++j) {
      renewal(base.fork(server_count + j),
              params.mtbf_requests * params.origin_mtbf_scale,
              params.mttr_requests, [&](std::uint64_t b, std::uint64_t e) {
                schedule.add_origin_outage(static_cast<std::uint32_t>(j), b,
                                           e);
              });
    }
  }
  return schedule;
}

FaultSchedule FaultSchedule::parse(const std::string& text) {
  FaultSchedule schedule;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    util::LineTokens tokens(line, "fault schedule", line_no);
    if (tokens.at_end()) continue;  // blank / comment-only line
    const std::string_view kind = tokens.expect("a fault directive");
    // Interval/multiplier violations from the add_* helpers gain the line
    // location on the way out.
    const auto located = [&](const auto& add) {
      try {
        add();
      } catch (const PreconditionError& e) {
        CDN_EXPECT(false, "fault schedule line " + std::to_string(line_no) +
                              ": " + e.diagnostic());
      }
    };
    if (kind == "server" || kind == "origin") {
      const std::uint32_t target = tokens.u32("a target index");
      tokens.literal("down");
      const std::uint64_t begin = tokens.u64("the outage begin");
      const std::uint64_t end = tokens.u64("the outage end");
      tokens.done();
      located([&] {
        if (kind == "server") {
          schedule.add_server_outage(target, begin, end);
        } else {
          schedule.add_origin_outage(target, begin, end);
        }
      });
    } else if (kind == "link") {
      const std::uint32_t server = tokens.u32("a server index");
      tokens.literal("degrade");
      const std::uint64_t begin = tokens.u64("the degradation begin");
      const std::uint64_t end = tokens.u64("the degradation end");
      const double mult = tokens.finite("a latency multiplier");
      tokens.done();
      located([&] { schedule.add_link_degradation(server, begin, end, mult); });
    } else if (kind == "surge") {
      const std::uint32_t site = tokens.u32("a site index");
      const std::uint64_t begin = tokens.u64("the surge begin");
      const std::uint64_t end = tokens.u64("the surge end");
      const double mult = tokens.finite("a demand multiplier");
      tokens.done();
      located([&] { schedule.add_demand_surge(site, begin, end, mult); });
    } else {
      CDN_EXPECT(false, tokens.last_where() + ": unknown fault directive '" +
                            std::string(kind) +
                            "' (expected server, origin, link or surge)");
    }
  }
  return schedule;
}

FaultSchedule FaultSchedule::load(const std::string& path) {
  return parse(util::read_file(path, "fault schedule file"));
}

namespace {

/// The shortest text that parses back to exactly `value`.
std::string exact(double value) {
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  return std::string(buf, end);
}

}  // namespace

std::string FaultSchedule::serialize() const {
  std::ostringstream out;
  for (const auto& o : server_outages_) {
    out << "server " << o.target << " down " << o.begin << ' ' << o.end
        << '\n';
  }
  for (const auto& o : origin_outages_) {
    out << "origin " << o.target << " down " << o.begin << ' ' << o.end
        << '\n';
  }
  for (const auto& d : link_degradations_) {
    out << "link " << d.server << " degrade " << d.begin << ' ' << d.end
        << ' ' << exact(d.latency_multiplier) << '\n';
  }
  for (const auto& s : demand_surges_) {
    out << "surge " << s.site << ' ' << s.begin << ' ' << s.end << ' '
        << exact(s.multiplier) << '\n';
  }
  return out.str();
}

FaultTimeline::FaultTimeline(const FaultSchedule& schedule,
                             std::size_t server_count, std::size_t site_count)
    : server_up_mask_(server_count, 1),
      server_down_depth_(server_count, 0),
      origin_down_depth_(site_count, 0),
      link_multiplier_(server_count, 1.0),
      surge_multiplier_(site_count, 1.0),
      surge_depth_(site_count, 0) {
  schedule.validate(server_count, site_count);
  using Kind = Transition::Kind;
  for (const auto& o : schedule.server_outages()) {
    transitions_sorted_.push_back({o.begin, Kind::kServerDown, o.target, 1.0});
    transitions_sorted_.push_back({o.end, Kind::kServerUp, o.target, 1.0});
  }
  for (const auto& o : schedule.origin_outages()) {
    transitions_sorted_.push_back({o.begin, Kind::kOriginDown, o.target, 1.0});
    transitions_sorted_.push_back({o.end, Kind::kOriginUp, o.target, 1.0});
  }
  for (const auto& d : schedule.link_degradations()) {
    transitions_sorted_.push_back(
        {d.begin, Kind::kLinkBegin, d.server, d.latency_multiplier});
    transitions_sorted_.push_back(
        {d.end, Kind::kLinkEnd, d.server, d.latency_multiplier});
  }
  for (const auto& s : schedule.demand_surges()) {
    transitions_sorted_.push_back(
        {s.begin, Kind::kSurgeBegin, s.site, s.multiplier});
    transitions_sorted_.push_back(
        {s.end, Kind::kSurgeEnd, s.site, s.multiplier});
  }
  // Stable ordering: by time, ends before begins at the same instant (a
  // [0,5) outage followed by [5,9) means the server is down throughout),
  // then by kind/target so equal schedules replay identically.
  std::sort(transitions_sorted_.begin(), transitions_sorted_.end(),
            [](const Transition& a, const Transition& b) {
              if (a.time != b.time) return a.time < b.time;
              const bool a_end = a.kind == Kind::kServerUp ||
                                 a.kind == Kind::kOriginUp ||
                                 a.kind == Kind::kLinkEnd ||
                                 a.kind == Kind::kSurgeEnd;
              const bool b_end = b.kind == Kind::kServerUp ||
                                 b.kind == Kind::kOriginUp ||
                                 b.kind == Kind::kLinkEnd ||
                                 b.kind == Kind::kSurgeEnd;
              if (a_end != b_end) return a_end;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.target < b.target;
            });
}

void FaultTimeline::apply(const Transition& tr) {
  using Kind = Transition::Kind;
  switch (tr.kind) {
    case Kind::kServerDown:
      if (server_down_depth_[tr.target]++ == 0) {
        ++servers_down_;
        server_up_mask_[tr.target] = 0;
      }
      break;
    case Kind::kServerUp:
      CDN_CHECK(server_down_depth_[tr.target] > 0,
                "server recovery without a matching outage");
      if (--server_down_depth_[tr.target] == 0) {
        --servers_down_;
        server_up_mask_[tr.target] = 1;
        just_recovered_.push_back(tr.target);
      }
      break;
    case Kind::kOriginDown:
      ++origin_down_depth_[tr.target];
      break;
    case Kind::kOriginUp:
      CDN_CHECK(origin_down_depth_[tr.target] > 0,
                "origin recovery without a matching outage");
      --origin_down_depth_[tr.target];
      break;
    case Kind::kLinkBegin:
      link_multiplier_[tr.target] *= tr.value;
      break;
    case Kind::kLinkEnd:
      link_multiplier_[tr.target] /= tr.value;
      break;
    case Kind::kSurgeBegin:
      if (surge_depth_[tr.target]++ == 0) ++surge_active_;
      surge_multiplier_[tr.target] *= tr.value;
      if (surge_multiplier_[tr.target] > surge_max_) {
        surge_max_ = surge_multiplier_[tr.target];
      }
      break;
    case Kind::kSurgeEnd:
      CDN_CHECK(surge_depth_[tr.target] > 0,
                "surge end without a matching begin");
      if (--surge_depth_[tr.target] == 0) --surge_active_;
      surge_multiplier_[tr.target] /= tr.value;
      recompute_surge_max();
      break;
  }
}

void FaultTimeline::recompute_surge_max() {
  surge_max_ = 1.0;
  if (surge_active_ == 0) return;
  for (const double m : surge_multiplier_) {
    if (m > surge_max_) surge_max_ = m;
  }
}

bool FaultTimeline::advance(std::uint64_t t) {
  just_recovered_.clear();
  bool changed = false;
  while (next_ < transitions_sorted_.size() &&
         transitions_sorted_[next_].time <= t) {
    apply(transitions_sorted_[next_]);
    ++next_;
    ++transitions_;
    changed = true;
  }
  // A back-to-back outage (one ends exactly when the next begins) is a
  // server that never actually came up — no recovery, no cold restart.
  if (!just_recovered_.empty()) {
    std::erase_if(just_recovered_,
                  [&](std::uint32_t s) { return !server_up(s); });
  }
  return changed;
}

}  // namespace cdn::fault
