#include "src/obs/span.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "src/obs/json_writer.h"
#include "src/util/serial.h"

namespace cdn::obs {

namespace {

std::uint64_t next_tracer_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

// Per-thread cache of the last (tracer, buffer) pairing.  Keyed by the
// process-unique tracer id, not the pointer: a destroyed tracer's address
// can be reused by a new one, and an id can't.
struct TlsCache {
  std::uint64_t tracer_id = 0;
  void* buffer = nullptr;
};
thread_local TlsCache tls_cache;

}  // namespace

SpanTracer::SpanTracer(std::size_t events_per_thread)
    : capacity_(std::max<std::size_t>(events_per_thread, 1)),
      tracer_id_(next_tracer_id()),
      epoch_(std::chrono::steady_clock::now()) {}

SpanTracer::~SpanTracer() {
  // Invalidate the calling thread's cache if it points into this tracer.
  // Other threads' caches stay stale but harmless: their ids never match a
  // future tracer (ids are never reused).
  if (tls_cache.tracer_id == tracer_id_) tls_cache = TlsCache{};
}

std::uint64_t SpanTracer::now_ns() const noexcept {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
}

SpanTracer::ThreadBuffer& SpanTracer::local_buffer() {
  if (tls_cache.tracer_id == tracer_id_) {
    return *static_cast<ThreadBuffer*>(tls_cache.buffer);
  }
  std::lock_guard<std::mutex> lock(mu_);
  // A cache miss can still be a re-visit (this thread alternated between
  // two live tracers); reuse its buffer so one thread keeps one tid.
  const std::thread::id self = std::this_thread::get_id();
  for (const auto& existing : buffers_) {
    if (existing->owner == self) {
      tls_cache = TlsCache{tracer_id_, existing.get()};
      return *existing;
    }
  }
  auto buffer = std::make_unique<ThreadBuffer>(
      capacity_, static_cast<std::uint32_t>(buffers_.size()));
  buffer->owner = self;
  ThreadBuffer& ref = *buffer;
  buffers_.push_back(std::move(buffer));
  tls_cache = TlsCache{tracer_id_, &ref};
  return ref;
}

void SpanTracer::push(const Event& event) {
  ThreadBuffer& buf = local_buffer();
  Event stamped = event;
  stamped.tid = buf.tid;
  if (buf.size == buf.ring.size()) ++buf.dropped;  // overwriting the oldest
  buf.ring[buf.head] = stamped;
  buf.head = (buf.head + 1) % buf.ring.size();
  buf.size = std::min(buf.size + 1, buf.ring.size());
}

void SpanTracer::complete(const char* name, const char* category,
                          std::uint64_t start_ns, std::uint64_t end_ns,
                          const char* arg_name, double arg_value) {
  Event e;
  e.name = name;
  e.category = category;
  e.ts_ns = start_ns;
  e.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  e.phase = Phase::kComplete;
  e.arg_name = arg_name;
  e.arg_value = arg_value;
  push(e);
}

void SpanTracer::instant(const char* name, const char* category,
                         const char* arg_name, double arg_value) {
  Event e;
  e.name = name;
  e.category = category;
  e.ts_ns = now_ns();
  e.phase = Phase::kInstant;
  e.arg_name = arg_name;
  e.arg_value = arg_value;
  push(e);
}

void SpanTracer::counter(const char* name, double value) {
  Event e;
  e.name = name;
  e.category = "counter";
  e.ts_ns = now_ns();
  e.phase = Phase::kCounter;
  e.arg_name = "value";
  e.arg_value = value;
  push(e);
}

void SpanTracer::set_thread_name(const std::string& name) {
  ThreadBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(mu_);
  buf.thread_name = name;
}

const char* SpanTracer::intern(const std::string& text) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& existing : interned_) {
    if (existing == text) return existing.c_str();
  }
  interned_.push_back(text);
  return interned_.back().c_str();
}

std::uint64_t SpanTracer::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& buf : buffers_) total += buf->size;
  return total;
}

std::uint64_t SpanTracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& buf : buffers_) total += buf->dropped;
  return total;
}

std::vector<SpanTracer::Event> SpanTracer::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> out;
  for (const auto& buf : buffers_) {
    // Oldest-first: the ring holds `size` events ending just before `head`.
    const std::size_t cap = buf->ring.size();
    const std::size_t start = (buf->head + cap - buf->size) % cap;
    for (std::size_t k = 0; k < buf->size; ++k) {
      out.push_back(buf->ring[(start + k) % cap]);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& a, const Event& b) {
                     if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                     return a.tid < b.tid;
                   });
  return out;
}

std::string SpanTracer::to_chrome_json() const {
  const std::vector<Event> sorted = events();

  std::vector<std::pair<std::uint32_t, std::string>> thread_names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : buffers_) {
      if (!buf->thread_name.empty()) {
        thread_names.emplace_back(buf->tid, buf->thread_name);
      }
    }
  }

  JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();

  // Thread-name metadata events first; viewers apply them to whole tracks.
  for (const auto& [tid, name] : thread_names) {
    w.begin_object();
    w.key("name");
    w.value("thread_name");
    w.key("ph");
    w.value("M");
    w.key("pid");
    w.value(std::uint64_t{1});
    w.key("tid");
    w.value(static_cast<std::uint64_t>(tid));
    w.key("args");
    w.begin_object();
    w.key("name");
    w.value(name);
    w.end_object();
    w.end_object();
  }

  for (const Event& e : sorted) {
    w.begin_object();
    w.key("name");
    w.value(e.name != nullptr ? e.name : "");
    w.key("cat");
    w.value(e.category != nullptr ? e.category : "");
    w.key("ph");
    switch (e.phase) {
      case Phase::kComplete:
        w.value("X");
        break;
      case Phase::kInstant:
        w.value("i");
        break;
      case Phase::kCounter:
        w.value("C");
        break;
    }
    // Trace-event timestamps are microseconds; fractional µs keep ns detail.
    w.key("ts");
    w.value(static_cast<double>(e.ts_ns) / 1000.0);
    if (e.phase == Phase::kComplete) {
      w.key("dur");
      w.value(static_cast<double>(e.dur_ns) / 1000.0);
    }
    if (e.phase == Phase::kInstant) {
      w.key("s");
      w.value("t");  // thread-scoped marker
    }
    w.key("pid");
    w.value(std::uint64_t{1});
    w.key("tid");
    w.value(static_cast<std::uint64_t>(e.tid));
    if (e.arg_name != nullptr) {
      w.key("args");
      w.begin_object();
      w.key(e.arg_name);
      w.value(e.arg_value);
      w.end_object();
    }
    w.end_object();
  }

  w.end_array();
  w.key("displayTimeUnit");
  w.value("ms");
  w.key("otherData");
  w.begin_object();
  w.key("dropped_events");
  w.value(dropped());
  w.end_object();
  w.end_object();
  return w.str();
}

void SpanTracer::write_json_file(const std::string& path) const {
  util::write_file(path, to_chrome_json() + '\n', "spans output file");
}

}  // namespace cdn::obs
