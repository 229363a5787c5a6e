#include "durable/snapshot.h"

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

// Zero-padded so lexicographic order == (interval, lsn) order.
std::string snapshot_name(IntervalIndex interval, std::uint64_t lsn) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "snap-%010d-%012llu.snap", interval,
                static_cast<unsigned long long>(lsn));
  return buf;
}

bool is_snapshot_name(const std::string& name) {
  return name.size() == 33 && name.rfind("snap-", 0) == 0 &&
         name.compare(28, 5, ".snap") == 0;
}

struct SnapshotMetrics {
  obs::Counter* writes;
  obs::Counter* bytes;
  obs::Counter* load_failures;
  obs::Histogram* write_seconds;

  static SnapshotMetrics& get() {
    static SnapshotMetrics m = [] {
      auto& reg = obs::MetricsRegistry::global();
      return SnapshotMetrics{
          reg.counter("durable.snapshot_writes"),
          reg.counter("durable.snapshot_bytes"),
          reg.counter("durable.snapshot_load_failures"),
          reg.histogram("durable.snapshot_write_seconds",
                        {1e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5, 2.0, 10.0}),
      };
    }();
    return m;
  }
};

}  // namespace

void SnapshotManager::open(const std::string& dir, int keep_latest) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("snapshot: cannot create directory " + dir +
                             ": " + ec.message());
  }
  dir_ = dir;
  keep_latest_ = std::max(1, keep_latest);
}

SnapshotMeta SnapshotManager::write(
    IntervalIndex interval, std::uint64_t lsn,
    const std::vector<std::string>& shard_blobs) {
  if (!is_open()) throw std::logic_error("snapshot: write before open");
  Stopwatch timer;

  ByteWriter out;
  out.bytes(kSnapshotMagic.data(), kSnapshotMagic.size());
  out.u32(kSnapshotVersion);
  out.i32(interval);
  out.u64(lsn);
  out.u32(static_cast<std::uint32_t>(shard_blobs.size()));
  for (const auto& blob : shard_blobs) out.str(blob);
  out.u32(crc32(out.data()));
  const std::string& image = out.data();

  const std::string final_path =
      (fs::path(dir_) / snapshot_name(interval, lsn)).string();
  const std::string tmp_path = final_path + ".tmp";

  // tmp + fsync + rename: readers only ever see a fully-written file.
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error("snapshot: cannot create " + tmp_path + ": " +
                             std::strerror(errno));
  }
  const char* data = image.data();
  std::size_t left = image.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw std::runtime_error(std::string("snapshot: write failed: ") +
                               std::strerror(err));
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("snapshot: fsync failed: ") +
                             std::strerror(err));
  }
  ::close(fd);
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    throw std::runtime_error("snapshot: rename failed: " + ec.message());
  }

  prune();

  auto& m = SnapshotMetrics::get();
  m.writes->inc();
  m.bytes->inc(image.size());
  m.write_seconds->observe(timer.elapsed_seconds());

  SnapshotMeta meta;
  meta.interval = interval;
  meta.lsn = lsn;
  meta.path = final_path;
  return meta;
}

void SnapshotManager::prune() const {
  const std::vector<std::string> files = snapshot_files(dir_);
  std::error_code ec;
  for (std::size_t i = static_cast<std::size_t>(keep_latest_);
       i < files.size(); ++i) {
    fs::remove(files[i], ec);
  }
}

std::vector<std::string> snapshot_files(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (is_snapshot_name(entry.path().filename().string())) {
      paths.push_back(entry.path().string());
    }
  }
  // Lexicographically descending == newest (interval, lsn) first thanks to
  // the zero-padded name.
  std::sort(paths.rbegin(), paths.rend());
  return paths;
}

bool read_snapshot_file(const std::string& path, SnapshotMeta* meta,
                        std::vector<std::string>* shard_blobs) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string image = std::move(buf).str();

  if (image.size() < kSnapshotMagic.size() + 4 ||
      std::string_view(image).substr(0, kSnapshotMagic.size()) !=
          kSnapshotMagic) {
    return false;
  }
  const std::string_view body(image.data(), image.size() - 4);
  ByteReader crc_in(std::string_view(image).substr(image.size() - 4));
  if (crc32(body) != crc_in.u32()) return false;

  ByteReader r(body.substr(kSnapshotMagic.size()));
  const std::uint32_t version = r.u32();
  const IntervalIndex interval = r.i32();
  const std::uint64_t lsn = r.u64();
  const std::uint32_t count = r.u32();
  if (!r.ok() || version != kSnapshotVersion) return false;
  std::vector<std::string> blobs;
  blobs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) blobs.push_back(r.str());
  if (!r.ok() || r.remaining() != 0) return false;

  meta->interval = interval;
  meta->lsn = lsn;
  meta->path = path;
  *shard_blobs = std::move(blobs);
  return true;
}

bool load_newest_snapshot(const std::string& dir, SnapshotMeta* meta,
                          std::vector<std::string>* shard_blobs) {
  for (const auto& path : snapshot_files(dir)) {
    if (read_snapshot_file(path, meta, shard_blobs)) return true;
    SnapshotMetrics::get().load_failures->inc();
  }
  return false;
}

}  // namespace sstd::durable
