#include "src/workload/trace_io.h"

#include <sstream>

#include "src/util/error.h"
#include "src/util/serial.h"
#include "src/util/text_parse.h"

namespace cdn::workload {

namespace {

constexpr char kMagic[8] = {'C', 'D', 'N', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint64_t kHeaderBytes =
    sizeof(kMagic) + sizeof(kVersion) + sizeof(std::uint64_t);
constexpr std::uint64_t kRecordBytes = 3 * sizeof(std::uint32_t);
constexpr std::uint64_t kChecksumBytes = sizeof(std::uint64_t);

}  // namespace

RecordedTrace RecordedTrace::record(RequestStream& stream,
                                    std::size_t count) {
  RecordedTrace trace;
  trace.requests_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    trace.requests_.push_back(stream.next());
  }
  return trace;
}

void RecordedTrace::save_binary(const std::string& path) const {
  util::ByteWriter w;
  w.raw(kMagic, sizeof(kMagic));
  w.u32(kVersion);
  w.u64(requests_.size());
  for (const Request& r : requests_) {
    w.u32(r.server);
    w.u32(r.site);
    w.u32(r.rank);
  }
  w.u64(util::fnv1a(w.buffer().data() + kHeaderBytes,
                    w.size() - kHeaderBytes));
  util::write_file(path, w.bytes(), "trace file");
}

RecordedTrace RecordedTrace::load_binary(const std::string& path) {
  const std::string bytes = util::read_file(path, "trace file");
  // Reject truncated or padded files up front, BEFORE trusting the record
  // count: a corrupt header must not drive a multi-gigabyte allocation.
  const std::uint64_t file_size = bytes.size();
  CDN_EXPECT(file_size >= kHeaderBytes + kChecksumBytes,
             "truncated trace file (smaller than its header): " + path);
  CDN_EXPECT(std::string_view(bytes).starts_with({kMagic, sizeof(kMagic)}),
             "not a hybridcdn trace file: " + path);
  util::ByteReader r(std::string_view(bytes).substr(sizeof(kMagic)));
  CDN_EXPECT(r.u32() == kVersion, "unsupported trace version in " + path);
  const std::uint64_t count = r.u64();
  CDN_EXPECT(count <= (file_size - kHeaderBytes - kChecksumBytes) /
                          kRecordBytes,
             "trace record count exceeds the file size (truncated or "
             "corrupt): " +
                 path);
  CDN_EXPECT(file_size == kHeaderBytes + count * kRecordBytes + kChecksumBytes,
             "trace file size does not match its record count: " + path);

  RecordedTrace trace;
  trace.requests_.resize(count);
  for (Request& req : trace.requests_) {
    req.server = r.u32();
    req.site = r.u32();
    req.rank = r.u32();
  }
  CDN_EXPECT(r.u64() == util::fnv1a(bytes.data() + kHeaderBytes,
                                    count * kRecordBytes),
             "trace checksum mismatch (corrupt file?): " + path);
  return trace;
}

void RecordedTrace::save_csv(const std::string& path) const {
  std::ostringstream csv;
  csv << "server,site,rank\n";
  for (const Request& r : requests_) {
    csv << r.server << ',' << r.site << ',' << r.rank << '\n';
  }
  util::write_file(path, csv.str(), "trace file");
}

RecordedTrace RecordedTrace::load_csv(const std::string& path) {
  std::istringstream in(util::read_file(path, "trace file"));
  std::string line;
  CDN_EXPECT(static_cast<bool>(std::getline(in, line)),
             "empty CSV trace file: " + path);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  CDN_EXPECT(line == "server,site,rank",
             "trace CSV line 1: expected header 'server,site,rank' (got '" +
                 line + "')");
  RecordedTrace trace;
  static constexpr const char* kFields[3] = {"server", "site", "rank"};
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const std::string where_line =
        "trace CSV line " + std::to_string(line_no);
    std::uint32_t values[3];
    std::size_t pos = 0;
    for (int f = 0; f < 3; ++f) {
      const std::string where =
          where_line + ", col " + std::to_string(util::text_column(pos));
      CDN_EXPECT(pos <= line.size(),
                 where + ": expected a " + std::string(kFields[f]) +
                     " field, but the line ended");
      std::size_t comma = line.find(',', pos);
      if (f == 2) {
        CDN_EXPECT(comma == std::string::npos,
                   where_line + ", col " +
                       std::to_string(util::text_column(comma)) +
                       ": unexpected extra field after rank");
        comma = line.size();
      } else {
        CDN_EXPECT(comma != std::string::npos,
                   where + ": expected 3 comma-separated fields, found " +
                       std::to_string(f + 1));
      }
      values[f] = util::parse_u32_token(line.substr(pos, comma - pos), where);
      pos = comma + 1;
    }
    trace.requests_.push_back({values[0], values[1], values[2]});
  }
  return trace;
}

void RecordedTrace::validate(std::size_t server_count, std::size_t site_count,
                             std::size_t objects_per_site) const {
  for (std::size_t i = 0; i < requests_.size(); ++i) {
    const Request& r = requests_[i];
    CDN_EXPECT(r.server < server_count,
               "trace record " + std::to_string(i) + ": server out of range");
    CDN_EXPECT(r.site < site_count,
               "trace record " + std::to_string(i) + ": site out of range");
    CDN_EXPECT(r.rank >= 1 && r.rank <= objects_per_site,
               "trace record " + std::to_string(i) + ": rank out of range");
  }
}

}  // namespace cdn::workload
