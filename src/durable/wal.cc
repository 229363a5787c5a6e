#include "durable/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "core/serialize.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace sstd::durable {

namespace fs = std::filesystem;

namespace {

// Cap on a single record's framed length: a corrupt length prefix must not
// make the scanner treat gigabytes of garbage as one "truncated" record.
constexpr std::uint32_t kMaxRecordLen = 64u << 20;

std::string segment_name(std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%06llu.seg",
                static_cast<unsigned long long>(index));
  return buf;
}

std::string segment_path(const std::string& dir, std::uint64_t index) {
  return (fs::path(dir) / segment_name(index)).string();
}

// Parses "wal-NNNNNN.seg" -> NNNNNN; 0 when the name does not match.
std::uint64_t segment_index_of(const std::string& filename) {
  if (filename.size() != 14 || filename.rfind("wal-", 0) != 0 ||
      filename.compare(10, 4, ".seg") != 0) {
    return 0;
  }
  std::uint64_t index = 0;
  for (std::size_t i = 4; i < 10; ++i) {
    const char c = filename[i];
    if (c < '0' || c > '9') return 0;
    index = index * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return index;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("wal: cannot read segment " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

// The one per-segment frame walk behind both wal_scan and the writer's
// reopen. Hands every valid record (and its frame size) to `fn` in log
// order and stops at the first frame that does not decode.
struct SegmentWalk {
  bool magic_ok = false;
  std::size_t valid_end = 0;   // offset just past the last valid record
  WalDecodeStatus stop = WalDecodeStatus::kTruncated;  // why it stopped
  std::uint64_t last_lsn = 0;  // 0 when the segment holds no record
};

template <typename Fn>
SegmentWalk walk_segment(std::string_view data, Fn&& fn) {
  SegmentWalk walk;
  const std::size_t magic = kWalSegmentMagic.size();
  if (data.size() < magic || data.substr(0, magic) != kWalSegmentMagic) {
    return walk;
  }
  walk.magic_ok = true;
  walk.valid_end = magic;
  WalRecord record;
  std::size_t consumed = 0;
  while ((walk.stop = decode_wal_record(data, walk.valid_end, &record,
                                        &consumed)) == WalDecodeStatus::kOk) {
    walk.valid_end += consumed;
    walk.last_lsn = record.lsn;
    fn(record, consumed);
  }
  return walk;
}

struct WalMetrics {
  obs::Counter* records;
  obs::Counter* bytes;
  obs::Counter* fsyncs;
  obs::Counter* segments;
  obs::Histogram* fsync_seconds;

  static WalMetrics& get() {
    static WalMetrics m = [] {
      auto& reg = obs::MetricsRegistry::global();
      return WalMetrics{
          reg.counter("durable.wal_records_appended"),
          reg.counter("durable.wal_bytes_appended"),
          reg.counter("durable.wal_fsyncs"),
          reg.counter("durable.wal_segments_created"),
          reg.histogram("durable.wal_fsync_seconds",
                        {1e-5, 1e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5, 2.0}),
      };
    }();
    return m;
  }
};

}  // namespace

// --- record codec -------------------------------------------------------

std::string encode_wal_record(std::uint16_t type, std::uint64_t lsn,
                              std::string_view payload) {
  ByteWriter body;
  body.u16(type);
  body.u64(lsn);
  body.bytes(payload.data(), payload.size());

  ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(body.size()));
  frame.u32(crc32(body.data()));
  frame.bytes(body.data().data(), body.size());
  return frame.take();
}

WalDecodeStatus decode_wal_record(std::string_view buf, std::size_t pos,
                                  WalRecord* out, std::size_t* consumed) {
  if (pos > buf.size()) return WalDecodeStatus::kCorrupt;
  const std::size_t avail = buf.size() - pos;
  if (avail < kWalFrameHeaderBytes) return WalDecodeStatus::kTruncated;

  ByteReader head(buf.substr(pos, kWalFrameHeaderBytes));
  const std::uint32_t len = head.u32();
  const std::uint32_t crc = head.u32();
  if (len < kWalRecordMetaBytes || len > kMaxRecordLen) {
    return WalDecodeStatus::kCorrupt;
  }
  if (avail - kWalFrameHeaderBytes < len) return WalDecodeStatus::kTruncated;

  const std::string_view body = buf.substr(pos + kWalFrameHeaderBytes, len);
  if (crc32(body) != crc) return WalDecodeStatus::kCorrupt;

  ByteReader body_in(body);
  out->type = body_in.u16();
  out->lsn = body_in.u64();
  out->payload.assign(body.substr(kWalRecordMetaBytes));
  *consumed = kWalFrameHeaderBytes + len;
  return WalDecodeStatus::kOk;
}

// --- payload codecs -----------------------------------------------------

std::string encode_report_payload(const Report& report) {
  ByteWriter out;
  out.u32(report.source.value);
  out.u32(report.claim.value);
  out.i64(report.time_ms);
  out.i8(report.attitude);
  out.f64(report.uncertainty);
  out.f64(report.independence);
  return out.take();
}

bool decode_report_payload(std::string_view payload, Report* out) {
  ByteReader in(payload);
  Report r;
  r.source.value = in.u32();
  r.claim.value = in.u32();
  r.time_ms = in.i64();
  r.attitude = in.i8();
  r.uncertainty = in.f64();
  r.independence = in.f64();
  if (!in.ok() || in.remaining() != 0) return false;
  *out = r;
  return true;
}

std::string encode_interval_end_payload(IntervalIndex interval) {
  ByteWriter out;
  out.i32(interval);
  return out.take();
}

bool decode_interval_end_payload(std::string_view payload,
                                 IntervalIndex* out) {
  ByteReader in(payload);
  const IntervalIndex interval = in.i32();
  if (!in.ok() || in.remaining() != 0) return false;
  *out = interval;
  return true;
}

// --- writer -------------------------------------------------------------

WalWriter::~WalWriter() { close(); }

void WalWriter::close() {
  if (fd_ >= 0) {
    sync();
    ::close(fd_);
    fd_ = -1;
  }
}

void WalWriter::open(const std::string& dir, const WalOptions& options) {
  close();
  dir_ = dir;
  options_ = options;

  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw std::runtime_error("wal: cannot create directory " + dir_ + ": " +
                             ec.message());
  }

  // Resume rule: appends continue in the newest segment after its last
  // valid record, and the LSN sequence resumes past the last valid record
  // of the newest segment that holds one — the previous segment when a
  // crash right after rotation left the newest holding only its magic.
  // Only those segments are read, and damage in an older segment cannot
  // pull the sequence back below LSNs already on disk.
  const std::vector<std::string> segments = wal_segments(dir_);
  std::uint64_t last_lsn = open_segment(
      segments.empty()
          ? 1
          : segment_index_of(fs::path(segments.back()).filename().string()));
  for (std::size_t i = segments.size(); last_lsn == 0 && i > 1; --i) {
    last_lsn = walk_segment(read_file(segments[i - 2]),
                            [](const WalRecord&, std::size_t) {})
                   .last_lsn;
  }
  next_lsn_ = last_lsn + 1;
}

std::uint64_t WalWriter::open_segment(std::uint64_t index) {
  if (fd_ >= 0) {
    fsync_now();
    ::close(fd_);
    fd_ = -1;
  }

  const std::string path = segment_path(dir_, index);
  const bool fresh = !fs::exists(path);
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    throw std::runtime_error("wal: cannot open segment " + path + ": " +
                             std::strerror(errno));
  }

  SegmentWalk walk;
  if (fresh) {
    WalMetrics::get().segments->inc();
    if (::write(fd, kWalSegmentMagic.data(), kWalSegmentMagic.size()) !=
        static_cast<ssize_t>(kWalSegmentMagic.size())) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("wal: cannot write magic to " + path + ": " +
                               std::strerror(err));
    }
    walk.valid_end = kWalSegmentMagic.size();
  } else {
    // Walk the record frames to find the valid prefix; anything after it
    // is a torn tail from a crash mid-append.
    const std::string data = read_file(path);
    walk = walk_segment(data, [](const WalRecord&, std::size_t) {});
    if (!walk.magic_ok) {
      ::close(fd);
      throw std::runtime_error("wal: bad segment magic in " + path);
    }
    if (walk.valid_end < data.size() &&
        ::ftruncate(fd, static_cast<off_t>(walk.valid_end)) != 0) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("wal: cannot truncate torn tail of " + path +
                               ": " + std::strerror(err));
    }
  }

  fd_ = fd;
  segment_index_ = index;
  segment_offset_ = walk.valid_end;
  return walk.last_lsn;
}

std::uint64_t WalWriter::append(WalRecordType type, std::string_view payload) {
  if (fd_ < 0) throw std::logic_error("wal: append on closed writer");
  if (segment_offset_ >= options_.segment_bytes) {
    open_segment(segment_index_ + 1);
  }

  const std::uint64_t lsn = next_lsn_++;
  const std::string frame =
      encode_wal_record(static_cast<std::uint16_t>(type), lsn, payload);

  const char* data = frame.data();
  std::size_t left = frame.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("wal: append failed: ") +
                               std::strerror(errno));
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  segment_offset_ += frame.size();
  dirty_ = true;

  auto& m = WalMetrics::get();
  m.records->inc();
  m.bytes->inc(frame.size());
  if (options_.fsync == FsyncPolicy::kEveryRecord) fsync_now();
  return lsn;
}

void WalWriter::sync() {
  if (fd_ >= 0 && dirty_ && options_.fsync != FsyncPolicy::kNone) {
    fsync_now();
  }
}

void WalWriter::fsync_now() {
  if (fd_ < 0 || !dirty_) return;
  Stopwatch timer;
  if (::fsync(fd_) != 0) {
    throw std::runtime_error(std::string("wal: fsync failed: ") +
                             std::strerror(errno));
  }
  dirty_ = false;
  auto& m = WalMetrics::get();
  m.fsyncs->inc();
  m.fsync_seconds->observe(timer.elapsed_seconds());
}

// --- scanning -----------------------------------------------------------

std::vector<std::string> wal_segments(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (segment_index_of(entry.path().filename().string()) > 0) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

WalScanStats wal_scan(const std::string& dir, std::uint64_t after_lsn,
                      const std::function<void(const WalRecord&)>& fn) {
  WalScanStats stats;
  const std::vector<std::string> segments = wal_segments(dir);
  for (std::size_t s = 0; s < segments.size(); ++s) {
    ++stats.segments;
    const std::string data = read_file(segments[s]);
    const SegmentWalk walk =
        walk_segment(data, [&](const WalRecord& record, std::size_t bytes) {
          stats.bytes += bytes;
          ++stats.records;
          stats.max_lsn = std::max(stats.max_lsn, record.lsn);
          if (record.lsn > after_lsn) fn(record);
        });
    // Unreadable segment: stop, earlier records were delivered.
    if (!walk.magic_ok) return stats;
    if (walk.valid_end == data.size()) continue;  // clean segment end
    // A torn tail of the final segment (crash mid-append) is counted and
    // skipped; a corrupt record, or a truncated one in a non-final segment
    // (mid-log damage, not a crash tail), stops the scan. Either way every
    // record before it was delivered.
    if (walk.stop == WalDecodeStatus::kTruncated && s + 1 == segments.size()) {
      stats.torn_bytes = data.size() - walk.valid_end;
    }
    return stats;
  }
  return stats;
}

}  // namespace sstd::durable
