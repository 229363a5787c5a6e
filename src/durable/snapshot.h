// Periodic shard snapshots (DESIGN.md §7).
//
// A snapshot is one atomic file capturing the full engine state of a node
// at an interval boundary: one opaque byte blob per shard (produced by
// SstdStreaming::save_state) plus the WAL position the state reflects.
// Recovery loads the newest valid snapshot and replays only the WAL suffix
// past its LSN — bounding recovery time regardless of log length.
//
// Atomicity: the file is written to a ".tmp" sibling, fsynced, then
// renamed into place, so a crash mid-snapshot leaves the previous snapshot
// untouched. A whole-file trailing CRC-32 rejects partially-written or
// bit-rotted files at load time; load_newest_snapshot falls back to the
// next-newest snapshot when the newest fails validation.
//
// File format (little-endian): magic "SSTDSNAP", u32 version, i32
// interval, u64 lsn, u32 shard count, per shard a length-prefixed blob,
// then u32 CRC-32 over everything before it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"

namespace sstd::durable {

inline constexpr std::string_view kSnapshotMagic = "SSTDSNAP";
inline constexpr std::uint32_t kSnapshotVersion = 1;

struct SnapshotMeta {
  IntervalIndex interval = -1;  // last interval the state reflects
  std::uint64_t lsn = 0;        // all WAL records <= lsn are reflected
  std::string path;
};

class SnapshotManager {
 public:
  SnapshotManager() = default;

  // `keep_latest` bounds disk usage: after each write, all but the newest
  // N snapshots are deleted. Creates `dir` if needed.
  void open(const std::string& dir, int keep_latest = 2);
  bool is_open() const { return !dir_.empty(); }

  // Atomically writes a snapshot of `shard_blobs` (index == shard id).
  // Throws std::runtime_error on I/O failure.
  SnapshotMeta write(IntervalIndex interval, std::uint64_t lsn,
                     const std::vector<std::string>& shard_blobs);

  const std::string& dir() const { return dir_; }

 private:
  void prune() const;

  std::string dir_;
  int keep_latest_ = 2;
};

// Snapshot files under `dir`, newest (highest interval, then LSN) first.
std::vector<std::string> snapshot_files(const std::string& dir);

// Parses and validates one snapshot file. Returns false (and leaves the
// outputs untouched) on bad magic/version/CRC or malformed structure.
bool read_snapshot_file(const std::string& path, SnapshotMeta* meta,
                        std::vector<std::string>* shard_blobs);

// The one snapshot picker: loads the newest snapshot under `dir` that
// passes validation, falling back to older ones (each rejected file counts
// in durable.snapshot_load_failures). Read-only — a missing directory has
// no snapshot. Returns false when no usable snapshot exists.
bool load_newest_snapshot(const std::string& dir, SnapshotMeta* meta,
                          std::vector<std::string>* shard_blobs);

}  // namespace sstd::durable
