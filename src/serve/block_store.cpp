#include "serve/block_store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <unordered_map>

#include "common/binio.hpp"

namespace hgp::serve {

namespace {

/// Parse one 12-byte record-frame prefix (body length + checksum). False
/// when the length field is implausible — the framing has desynchronized
/// and, records being variable-length, there is no resync point. Single
/// source of truth for load_file's walk and the attach-time tail rescan.
bool parse_frame_prefix(const char (&prefix)[12], std::uint32_t& len,
                        std::uint64_t& checksum) {
  io::Reader pr(prefix, sizeof prefix);
  pr.u32(len);
  pr.u64(checksum);
  return len <= BlockStore::kMaxRecordBytes;
}

void encode_header(std::string& out, std::uint64_t fingerprint) {
  io::Writer w(out);
  w.u32(BlockStore::kMagic);
  w.u32(BlockStore::kFormatVersion);
  w.u64(fingerprint);
}

void encode_record(std::string& out, std::uint64_t fingerprint, const std::string& key,
                   BlockKind kind, const core::CompiledBlock& block) {
  std::string body;
  io::Writer w(body);
  w.u8(kind == BlockKind::Pulse ? 1 : 0);
  w.u64(fingerprint);
  w.str(key);
  block.serialize(body);
  io::Writer rec(out);
  rec.u32(static_cast<std::uint32_t>(body.size()));
  rec.u64(io::fnv1a(body));
  out.append(body);
}

/// Decode one checksum-verified record body. False on any malformation
/// (unknown kind, truncated payload, trailing garbage). Kind 2 marked the
/// fused blocks older builds cached; it is now unknown, so such a record is
/// skipped like any malformed one and the rest of the file still loads.
bool decode_body(const std::string& body, std::uint64_t& fingerprint, std::string& key,
                 BlockKind& kind, core::CompiledBlock& block) {
  io::Reader in(body);
  std::uint8_t kind_byte = 0;
  if (!in.u8(kind_byte) || kind_byte > 1) return false;
  kind = kind_byte == 1 ? BlockKind::Pulse : BlockKind::Gate;
  if (!in.u64(fingerprint)) return false;
  if (!in.str(key)) return false;
  if (!core::CompiledBlock::deserialize(in, block)) return false;
  return in.remaining() == 0;
}

}  // namespace

BlockStore::LoadReport BlockStore::load_file(const std::string& path,
                                             std::uint64_t fingerprint,
                                             const RecordFn& fn) {
  LoadReport report;
  std::ifstream in(path, std::ios::binary);
  if (!in) return report;

  char header[16];
  if (!in.read(header, sizeof header)) return report;
  io::Reader hr(header, sizeof header);
  std::uint32_t magic = 0, version = 0;
  std::uint64_t file_fp = 0;
  if (!hr.u32(magic) || !hr.u32(version) || !hr.u64(file_fp)) return report;
  if (magic != kMagic || version != kFormatVersion) return report;
  report.header_ok = true;
  report.valid_bytes = sizeof header;
  report.fingerprint_ok = file_fp == fingerprint;

  std::string body;
  for (;;) {
    char prefix[12];
    if (!in.read(prefix, sizeof prefix)) {
      // Clean EOF between records, or a tail shorter than one prefix (a
      // writer killed mid-append) — either way there is nothing more to
      // trust.
      if (in.gcount() != 0) ++report.skipped;
      break;
    }
    std::uint32_t len = 0;
    std::uint64_t checksum = 0;
    if (!parse_frame_prefix(prefix, len, checksum)) {
      ++report.skipped;  // desynchronized framing: no resync point, stop
      break;
    }
    body.resize(len);
    if (!in.read(body.data(), static_cast<std::streamsize>(len))) {
      ++report.skipped;  // truncated tail
      break;
    }
    report.valid_bytes += sizeof prefix + len;  // an intact frame either way
    if (io::fnv1a(body) != checksum) {
      ++report.skipped;  // bit rot within one record: framing still holds
      continue;
    }
    std::uint64_t record_fp = 0;
    std::string key;
    BlockKind kind = BlockKind::Gate;
    core::CompiledBlock block;
    if (!decode_body(body, record_fp, key, kind, block)) {
      ++report.skipped;
      continue;
    }
    // Ownership is per record: each carries the fingerprint it was compiled
    // under, so a multi-calibration store (or one whose header another
    // device restamped since we wrote it) still hands every reader exactly
    // its own blocks — nothing foreign is merged, nothing ours is hidden.
    if (record_fp != fingerprint) {
      ++report.skipped;  // another calibration's block
      continue;
    }
    fn(key, kind, record_fp, std::move(block));
    ++report.loaded;
  }
  return report;
}

std::size_t BlockStore::save_file(const std::string& path, std::uint64_t fingerprint,
                                  const std::vector<SaveEntry>& entries) {
  // Unique sibling temp file: the pid disambiguates concurrent savers
  // across processes sharing one path (the fleet scenario), the counter
  // within this process; the final rename is atomic against readers.
  static std::atomic<std::uint64_t> save_seq{0};
  const std::string tmp = path + ".tmp" + std::to_string(::getpid()) + "." +
                          std::to_string(save_seq.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return 0;
    std::string buf;
    encode_header(buf, fingerprint);
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    for (const auto& [key, kind, entry_fp, block] : entries) {
      buf.clear();
      encode_record(buf, entry_fp != 0 ? entry_fp : fingerprint, key, kind, *block);
      out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    }
    if (!out) {
      std::remove(tmp.c_str());
      return 0;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return 0;
  }
  return entries.size();
}

BlockStore::BlockStore(std::string path, std::uint64_t fingerprint, Mode mode,
                       std::uint64_t valid_bytes)
    : path_(std::move(path)), fingerprint_(fingerprint) {
  // The flock descriptor coordinates across processes: attach mutations
  // (truncate / header restamp) hold it exclusively, appends hold it shared,
  // so an attacher can never resize away a record another process is
  // mid-appending.
  lock_fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  if (lock_fd_ < 0) return;
  ::flock(lock_fd_, LOCK_EX);

  std::string header;
  encode_header(header, fingerprint);
  if (mode == Mode::Reset) {
    // Reset was chosen from a pre-lock load pass; another process may have
    // created a valid store here since (two fleet workers starting against
    // a missing file both pick Reset). Re-check under the lock and demote
    // to Append/Takeover rather than wiping its records.
    std::ifstream check(path_, std::ios::binary);
    char hdr[16];
    if (check.read(hdr, sizeof hdr)) {
      io::Reader hr(hdr, sizeof hdr);
      std::uint32_t magic = 0, version = 0;
      std::uint64_t file_fp = 0;
      if (hr.u32(magic) && hr.u32(version) && hr.u64(file_fp) && magic == kMagic &&
          version == kFormatVersion) {
        mode = file_fp == fingerprint ? Mode::Append : Mode::Takeover;
        valid_bytes = sizeof hdr;  // the rescan below walks the frames
      }
    }
  }

  bool prepared = false;
  if (mode == Mode::Reset) {
    std::ofstream fresh(path_, std::ios::binary | std::ios::trunc);
    fresh.write(header.data(), static_cast<std::streamsize>(header.size()));
    prepared = static_cast<bool>(fresh);
  } else {
    // Drop any torn tail: appending after a half-written record would bury
    // every later record behind an unreadable frame. `valid_bytes` may be
    // stale by now — another attacher can have truncated the same tear and
    // appended fresh records since our load pass — so re-walk the frames
    // from there (under the exclusive lock) and only cut what still fails
    // to frame.
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path_, ec);
    if (!ec && size > valid_bytes) {
      std::uint64_t end = valid_bytes;
      std::ifstream rescan(path_, std::ios::binary);
      rescan.seekg(static_cast<std::streamoff>(end));
      char prefix[12];
      std::uint32_t len = 0;
      std::uint64_t checksum = 0;
      while (rescan.read(prefix, sizeof prefix)) {
        if (!parse_frame_prefix(prefix, len, checksum)) break;
        rescan.seekg(static_cast<std::streamoff>(len), std::ios::cur);
        if (!rescan || static_cast<std::uint64_t>(rescan.tellg()) > size) break;
        end = static_cast<std::uint64_t>(rescan.tellg());
      }
      if (size > end) std::filesystem::resize_file(path_, end, ec);
    }
    prepared = true;
    if (mode == Mode::Takeover) {
      // Stamp this calibration's fingerprint into the header; the existing
      // records stay — each carries its own fingerprint, so every
      // calibration keeps loading exactly its blocks (per-record ownership
      // in load_file) and none can be replayed by the wrong device.
      std::fstream restamp(path_, std::ios::binary | std::ios::in | std::ios::out);
      restamp.write(header.data(), static_cast<std::streamsize>(header.size()));
      prepared = static_cast<bool>(restamp);
    }
  }
  ::flock(lock_fd_, LOCK_UN);
  if (!prepared) return;

  // The appender itself runs in O_APPEND mode (std::ios::app): every flush
  // lands at the true end of file, so concurrent appenders — other threads
  // via this object's mutex, other *processes* via the kernel's append
  // semantics — interleave at record granularity instead of splicing over
  // each other at stale offsets. The stream buffer is sized so one record
  // is one OS write.
  iobuf_.resize(std::size_t{1} << 16);
  file_.rdbuf()->pubsetbuf(iobuf_.data(), static_cast<std::streamsize>(iobuf_.size()));
  file_.open(path_, std::ios::binary | std::ios::out | std::ios::app);
  ok_ = static_cast<bool>(file_);
}

BlockStore::~BlockStore() {
  if (lock_fd_ >= 0) ::close(lock_fd_);
}

void BlockStore::append(const std::string& key, BlockKind kind,
                        const core::CompiledBlock& block, std::uint64_t fingerprint) {
  std::string buf;
  encode_record(buf, fingerprint != 0 ? fingerprint : fingerprint_, key, kind, block);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!ok_) return;
  // Skip keys already on disk: an entry the LRU evicted and a later run
  // recompiled would otherwise append a duplicate record per round trip,
  // growing the file without bound.
  if (!persisted_.insert(key).second) return;
  // One buffered write + flush per record under the shared flock: a crash
  // mid-append tears at most the final record (which the checksummed loader
  // skips and the next attacher truncates), and no concurrent attacher can
  // resize the file out from under the flush.
  ::flock(lock_fd_, LOCK_SH);
  file_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  file_.flush();
  ::flock(lock_fd_, LOCK_UN);
  ok_ = static_cast<bool>(file_);
}

void BlockStore::note_existing(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  persisted_.insert(key);
}

std::size_t BlockStore::compact(const std::vector<SaveEntry>& entries) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!ok_) return 0;
  ::flock(lock_fd_, LOCK_EX);

  // Walk the current frames and keep the other calibrations' records as raw
  // frames (checksum already verified, so byte-for-byte reuse is safe).
  // Frames of this fingerprint are skipped — the live ones come back from
  // `entries` — as are torn or corrupt frames.
  std::vector<std::string> foreign_keys;  // first-seen order
  std::unordered_map<std::string, std::string> foreign_frames;
  {
    std::ifstream in(path_, std::ios::binary);
    char header[16];
    if (in.read(header, sizeof header)) {
      std::string body;
      for (;;) {
        char prefix[12];
        if (!in.read(prefix, sizeof prefix)) break;
        std::uint32_t len = 0;
        std::uint64_t checksum = 0;
        if (!parse_frame_prefix(prefix, len, checksum)) break;
        body.resize(len);
        if (!in.read(body.data(), static_cast<std::streamsize>(len))) break;
        if (io::fnv1a(body) != checksum) continue;
        std::uint64_t record_fp = 0;
        std::string key;
        BlockKind kind = BlockKind::Gate;
        core::CompiledBlock block;
        if (!decode_body(body, record_fp, key, kind, block)) continue;
        if (record_fp == fingerprint_) continue;
        std::string frame(prefix, sizeof prefix);
        frame.append(body);
        if (foreign_frames.emplace(key, frame).second)
          foreign_keys.push_back(key);
        else
          foreign_frames[key] = std::move(frame);  // last record wins, as in load
      }
    }
  }

  std::string out;
  encode_header(out, fingerprint_);
  for (const std::string& k : foreign_keys) out.append(foreign_frames.at(k));
  for (const auto& [key, kind, entry_fp, block] : entries)
    encode_record(out, entry_fp != 0 ? entry_fp : fingerprint_, key, kind, *block);

  bool written = false;
  {
    std::fstream rw(path_, std::ios::binary | std::ios::in | std::ios::out);
    rw.write(out.data(), static_cast<std::streamsize>(out.size()));
    rw.flush();
    written = static_cast<bool>(rw);
  }
  if (written) written = ::truncate(path_.c_str(), static_cast<off_t>(out.size())) == 0;
  ::flock(lock_fd_, LOCK_UN);
  if (!written) {
    // A half-rewritten file is still frame-valid up to the failure point;
    // stop appending to it rather than risk compounding the damage.
    ok_ = false;
    return 0;
  }

  // The dedup set must mirror the new disk contents exactly: keys dropped by
  // the compaction become appendable again, keys it kept stay deduped.
  persisted_.clear();
  for (const std::string& k : foreign_keys) persisted_.insert(k);
  for (const SaveEntry& e : entries) persisted_.insert(std::get<0>(e));
  return foreign_keys.size() + entries.size();
}

}  // namespace hgp::serve
