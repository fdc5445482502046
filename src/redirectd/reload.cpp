#include "src/redirectd/reload.h"

#include <utility>

#include "src/placement/placement_io.h"
#include "src/util/error.h"
#include "src/util/serial.h"

namespace cdn::redirectd {

const char* reload_kind_name(ReloadKind kind) {
  return kind == ReloadKind::kPlacement ? "placement" : "endpoints";
}

ReloadWorker::ReloadWorker(net::EventLoop& loop,
                           const sys::CdnSystem& system)
    : loop_(loop), system_(system) {
  thread_ = std::thread([this] { worker_main(); });
}

ReloadWorker::~ReloadWorker() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void ReloadWorker::submit(ReloadKind kind, std::string path, Done done) {
  ++submitted_;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    requests_.push_back({kind, std::move(path), std::move(done)});
  }
  cv_.notify_one();
}

void ReloadWorker::drain_completions() {
  for (;;) {
    Completion completion;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (completions_.empty()) return;
      completion = std::move(completions_.front());
      completions_.pop_front();
    }
    completion.done(completion.outcome);
  }
}

void ReloadWorker::worker_main() {
  for (;;) {
    Request request;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutdown_ || !requests_.empty(); });
      if (shutdown_) return;
      request = std::move(requests_.front());
      requests_.pop_front();
    }
    Completion completion{process(request), std::move(request.done)};
    {
      std::lock_guard<std::mutex> lock(mutex_);
      completions_.push_back(std::move(completion));
    }
    loop_.wakeup();
  }
}

ReloadOutcome ReloadWorker::process(const Request& request) const {
  ReloadOutcome outcome;
  outcome.kind = request.kind;
  try {
    if (request.kind == ReloadKind::kPlacement) {
      auto placement =
          std::make_shared<const placement::PlacementResult>(
              placement::load_placement_result(request.path, system_));
      outcome.digest = placement::placement_digest(placement->placement);
      outcome.placement = std::move(placement);
    } else {
      auto endpoints = std::make_shared<const EndpointMap>(EndpointMap::load(
          request.path, system_.server_count(), system_.site_count()));
      const std::string canonical = endpoints->serialize();
      outcome.digest = util::fnv1a(canonical.data(), canonical.size());
      outcome.endpoints = std::move(endpoints);
    }
    outcome.ok = true;
  } catch (const PreconditionError& e) {
    outcome.ok = false;
    outcome.error = e.diagnostic();
  } catch (const std::exception& e) {
    outcome.ok = false;
    outcome.error = e.what();
  }
  return outcome;
}

}  // namespace cdn::redirectd
