#include "src/recover/checkpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/util/error.h"

namespace cdn::recover {

namespace {

constexpr char kMagic[8] = {'C', 'D', 'N', 'C', 'K', 'P', 'T', '1'};

}  // namespace

std::uint64_t write_file(const std::string& path, const Checkpoint& ckpt) {
  util::ByteWriter w;
  w.raw(kMagic, sizeof(kMagic));
  w.u32(kCheckpointVersion);
  w.u64(ckpt.fingerprint.size());
  for (const auto& [name, hash] : ckpt.fingerprint) {
    w.str(name);
    w.u64(hash);
  }
  w.u64(ckpt.payload.size());
  w.raw(ckpt.payload.data(), ckpt.payload.size());
  w.u64(util::fnv1a(w.buffer().data(), w.size()));

  // Atomic publish: write a sibling tmp file, then rename it over the
  // target.  POSIX rename() replaces atomically, so readers only ever see
  // the old complete file or the new complete file.
  const std::string tmp = path + ".tmp";
  util::write_file(tmp, w.bytes(), "checkpoint temp file");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    CDN_EXPECT(false, "cannot rename checkpoint into place: " + path + ": " +
                          std::strerror(err));
  }
  return w.size();
}

Checkpoint read_file(const std::string& path) {
  const std::string bytes = util::read_file(path, "checkpoint file");
  // Smallest valid file: magic + version + two counts + trailer.
  constexpr std::size_t kMinSize = 8 + 4 + 8 + 8 + 8;
  CDN_EXPECT(bytes.size() >= kMinSize,
             "checkpoint file truncated: " + path + " is " +
                 std::to_string(bytes.size()) + " bytes, need at least " +
                 std::to_string(kMinSize));

  // Checksum first: a torn or bit-flipped file is rejected before any of
  // its contents are interpreted.
  const std::string_view body(bytes.data(), bytes.size() - 8);
  util::ByteReader trailer(std::string_view(bytes).substr(body.size()));
  CDN_EXPECT(trailer.u64() == util::fnv1a(body.data(), body.size()),
             "checkpoint checksum mismatch in " + path +
                 " (torn write or corruption)");

  util::ByteReader r(body);
  char magic[8];
  r.raw(magic, sizeof(magic));
  CDN_EXPECT(std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
             "not a checkpoint file (bad magic): " + path);
  const std::uint32_t version = r.u32();
  CDN_EXPECT(version == kCheckpointVersion,
             "unsupported checkpoint version " + std::to_string(version) +
                 " in " + path + " (this build reads version " +
                 std::to_string(kCheckpointVersion) + ")");

  Checkpoint ckpt;
  const std::uint64_t sections = r.u64();
  CDN_EXPECT(sections <= 64, "implausible checkpoint section count");
  for (std::uint64_t i = 0; i < sections; ++i) {
    std::string name = r.str();
    const std::uint64_t hash = r.u64();
    ckpt.fingerprint.emplace_back(std::move(name), hash);
  }
  const std::uint64_t payload_size = r.u64();
  r.need(payload_size, "checkpoint payload");
  ckpt.payload.resize(static_cast<std::size_t>(payload_size));
  r.raw(ckpt.payload.data(), ckpt.payload.size());
  CDN_EXPECT(r.done(), "checkpoint file has trailing bytes: " + path);
  return ckpt;
}

void check_fingerprint(const Checkpoint& ckpt,
                       const std::vector<FingerprintSection>& expected) {
  std::string changed;
  std::string missing;
  std::string extra;
  const auto append = [](std::string& list, const std::string& name) {
    if (!list.empty()) list += ", ";
    list += name;
  };
  for (const auto& [name, hash] : expected) {
    bool found = false;
    for (const auto& [fname, fhash] : ckpt.fingerprint) {
      if (fname != name) continue;
      found = true;
      if (fhash != hash) append(changed, name);
      break;
    }
    if (!found) append(missing, name);
  }
  for (const auto& [fname, fhash] : ckpt.fingerprint) {
    bool found = false;
    for (const auto& [name, hash] : expected) {
      if (name == fname) {
        found = true;
        break;
      }
    }
    if (!found) append(extra, fname);
  }
  if (changed.empty() && missing.empty() && extra.empty()) return;
  std::string msg = "checkpoint fingerprint mismatch — resume requires the "
                    "exact configuration that wrote the checkpoint.";
  if (!changed.empty()) msg += " Changed: " + changed + ".";
  if (!missing.empty()) msg += " Missing from file: " + missing + ".";
  if (!extra.empty()) msg += " Unexpected in file: " + extra + ".";
  CDN_EXPECT(false, msg);
}

}  // namespace cdn::recover
