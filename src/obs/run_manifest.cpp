#include "src/obs/run_manifest.h"

#include <chrono>
#include <cstdio>
#include <map>

#include "src/obs/json_writer.h"
#include "src/util/error.h"
#include "src/util/serial.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

// Sanitizer detection: GCC defines __SANITIZE_*__, Clang exposes
// __has_feature.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CDN_BUILD_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define CDN_BUILD_TSAN 1
#endif
#if __has_feature(undefined_behavior_sanitizer)
#define CDN_BUILD_UBSAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define CDN_BUILD_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define CDN_BUILD_TSAN 1
#endif

namespace cdn::obs {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Stamped once during static initialisation, so a manifest built after the
// measured work still reports the whole process's wall time.
const std::uint64_t process_start_ns = steady_now_ns();

std::string detect_build_flags() {
#ifdef NDEBUG
  std::string flags = "ndebug";
#else
  std::string flags = "assertions";
#endif
#ifdef CDN_BUILD_ASAN
  flags += ",asan";
#endif
#ifdef CDN_BUILD_TSAN
  flags += ",tsan";
#endif
#ifdef CDN_BUILD_UBSAN
  flags += ",ubsan";
#endif
  return flags;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

}  // namespace

void RunManifest::add_fingerprint(const std::string& name,
                                  std::uint64_t hash) {
  for (const auto& existing : fingerprints) {
    if (existing.first == name) {
      CDN_EXPECT(existing.second == hash,
                 "manifest fingerprint re-added with different hash: " + name);
      return;
    }
  }
  fingerprints.emplace_back(name, hash);
}

void RunManifest::add_fingerprints(
    const std::vector<std::pair<std::string, std::uint64_t>>& sections) {
  for (const auto& section : sections) {
    bool present = false;
    for (const auto& existing : fingerprints) {
      if (existing.first == section.first) {
        present = true;
        break;
      }
    }
    if (!present) fingerprints.push_back(section);
  }
}

void RunManifest::finalize() {
  if (start_steady_ns != 0) {
    wall_seconds =
        static_cast<double>(steady_now_ns() - start_steady_ns) / 1e9;
  }
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    const auto tv_seconds = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) / 1e6;
    };
    cpu_seconds = tv_seconds(usage.ru_utime) + tv_seconds(usage.ru_stime);
#if defined(__APPLE__)
    peak_rss_bytes = static_cast<std::uint64_t>(usage.ru_maxrss);
#else
    peak_rss_bytes =
        static_cast<std::uint64_t>(usage.ru_maxrss) * std::uint64_t{1024};
#endif
  }
#endif
}

void RunManifest::write_value(JsonWriter& w) const {
  w.begin_object();
  w.key("schema_version");
  w.value(static_cast<std::uint64_t>(kSchemaVersion));
  w.key("tool");
  w.value(tool);
  w.key("seed");
  w.value(seed);
  w.key("threads");
  w.value(threads);
  w.key("shards");
  w.value(shards);

  w.key("fingerprints");
  w.begin_object();
  {
    std::map<std::string, std::uint64_t> sorted(fingerprints.begin(),
                                                fingerprints.end());
    for (const auto& [name, hash] : sorted) {
      w.key(name);
      w.value(hex64(hash));
    }
  }
  w.end_object();

  w.key("build");
  w.begin_object();
  w.key("compiler");
  w.value(compiler);
  w.key("type");
  w.value(build_type);
  w.key("flags");
  w.value(build_flags);
  w.end_object();

  w.key("resources");
  w.begin_object();
  w.key("wall_seconds");
  w.value(wall_seconds);
  w.key("cpu_seconds");
  w.value(cpu_seconds);
  w.key("peak_rss_bytes");
  w.value(peak_rss_bytes);
  w.end_object();

  w.end_object();
}

std::string RunManifest::to_json() const {
  JsonWriter w;
  write_value(w);
  return w.str();
}

void RunManifest::write_json_file(const std::string& path) const {
  util::write_file(path, to_json() + '\n', "manifest output file");
}

RunManifest make_run_manifest(std::string tool) {
  RunManifest manifest;
  manifest.tool = std::move(tool);
#ifdef __VERSION__
  manifest.compiler = __VERSION__;
#else
  manifest.compiler = "unknown";
#endif
#ifdef HYBRIDCDN_BUILD_TYPE
  manifest.build_type = HYBRIDCDN_BUILD_TYPE;
#else
  manifest.build_type = "unknown";
#endif
  manifest.build_flags = detect_build_flags();
  manifest.start_steady_ns = process_start_ns;
  return manifest;
}

}  // namespace cdn::obs
