#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "core/compiled_block.hpp"
#include "serve/block_kind.hpp"

namespace hgp::serve {

/// Versioned on-disk persistence for compiled blocks: the format that lets a
/// process-wide BlockCache survive across runs and hosts, so a fleet of
/// workers shares one calibration's pulse-ODE compilations instead of each
/// recompiling them (PAPER.md §III — the hybrid model's dominant compile
/// cost).
///
/// File layout (fixed-width host-endian — little-endian on every supported
/// target; a byte-swapped host would fail the bounds checks and degrade to
/// cold compilation — doubles by IEEE-754 bit pattern):
///
///   header:  magic u32 ("HGPB") | format version u32 | backend fingerprint
///            u64 (backend::FakeBackend::fingerprint() of the last writer)
///   records: body length u32 | FNV-1a checksum u64 of the body | body
///   body:    BlockKind u8 (0 gate, 1 pulse) | writer backend fingerprint
///            u64 | cache key (u32 length + bytes) | the serialized
///            core::CompiledBlock payload
///
/// Validation is entry-by-entry and never fatal: a magic/version mismatch
/// skips the whole file, a failed checksum or malformed payload skips that
/// record, a truncated tail (e.g. a writer killed mid-append) skips
/// everything from the cut, and fingerprint ownership is decided *per
/// record* — each record carries the fingerprint it was compiled under and
/// loads only for that backend, so a store shared by several calibrations
/// warm-starts each one with exactly its blocks (the header fingerprint is
/// advisory: who wrote last). In every degradation path the reader falls
/// back to cold compilation. Recalibration therefore invalidates exactly
/// like the in-memory cache: the new device loads nothing of the old one,
/// takes over the header on attach, and the old records stay on disk —
/// still loadable by their own calibration, never replayable by the wrong
/// one.
class BlockStore {
 public:
  static constexpr std::uint32_t kMagic = 0x42504748u;  // "HGPB" little-endian
  /// Bumped whenever the record layout or the cache-key format changes: a
  /// store written under other keys holds records no lookup can reach, so
  /// the mismatch resets it on attach.
  static constexpr std::uint32_t kFormatVersion = 2;
  /// Upper bound on one record body — a corrupted length field may not ask
  /// the reader to allocate unbounded memory. Generous: the largest real
  /// payload (a 4-qubit block unitary) is ~4 KiB.
  static constexpr std::uint32_t kMaxRecordBytes = 1u << 26;

  /// What a load pass found. `loaded`/`skipped` count records; the header
  /// flags explain an empty result (missing file, foreign format, other
  /// calibration).
  struct LoadReport {
    std::size_t loaded = 0;
    std::size_t skipped = 0;
    bool header_ok = false;       // magic + version matched
    bool fingerprint_ok = false;  // header backend fingerprint matched
    /// Bytes up to the end of the last intact record frame (the header
    /// alone when no record survives, 0 when the header is invalid).
    /// Appenders resume here so a torn tail never buries later records.
    std::uint64_t valid_bytes = 0;
  };

  /// One decoded record handed to the load callback (`fingerprint` is the
  /// backend the record was compiled for — always the loader's own, since
  /// foreign records are skipped).
  using RecordFn = std::function<void(const std::string& key, BlockKind kind,
                                      std::uint64_t fingerprint,
                                      core::CompiledBlock block)>;

  /// Stream `path`'s records through `fn`, validating each as described
  /// above. Never throws on bad input — unreadable files simply report
  /// nothing loaded.
  static LoadReport load_file(const std::string& path, std::uint64_t fingerprint,
                              const RecordFn& fn);

  /// Atomically replace `path` with a fresh store holding `entries` (written
  /// to a sibling temp file, then renamed — concurrent readers see either
  /// the old snapshot or the new one, never a torn file). Returns the number
  /// of records written, or 0 if the file could not be created. Snapshots
  /// are for caches *without* a live appender on the same path: the rename
  /// detaches any open appender's descriptor, whose later appends would
  /// land in the replaced (unlinked) file.
  /// One entry of a snapshot: key, kind, the backend fingerprint the block
  /// was compiled for (0 = stamp the snapshot's fingerprint), and the block.
  using SaveEntry = std::tuple<std::string, BlockKind, std::uint64_t,
                               std::shared_ptr<const core::CompiledBlock>>;

  static std::size_t save_file(const std::string& path, std::uint64_t fingerprint,
                               const std::vector<SaveEntry>& entries);

  /// How the appending constructor treats what is already at `path`.
  enum class Mode {
    /// Start over: truncate and write a fresh header (missing or
    /// foreign-format files).
    Reset,
    /// Keep the records but stamp this fingerprint into the header — the
    /// non-destructive recalibration path. Old records stay on disk; they
    /// key on the old fingerprint, so they load as inert entries and are
    /// never replayed for the new device.
    Takeover,
    /// The file already belongs to this fingerprint: append after the last
    /// intact record.
    Append,
  };

  /// Open `path` for incremental write-through appends. `valid_bytes` is
  /// the LoadReport's resume point: Takeover/Append first truncate the file
  /// there, so a tail torn by a killed writer never buries the records
  /// appended after it. Load the existing records with load_file *before*
  /// constructing the appender.
  BlockStore(std::string path, std::uint64_t fingerprint, Mode mode,
             std::uint64_t valid_bytes);
  ~BlockStore();

  /// Append one record; keys already persisted (seen by note_existing or a
  /// previous append) are skipped, so an LRU-evicted-then-recompiled block
  /// does not grow the file on every round trip. Thread-safe: concurrent
  /// write-through inserts from sweep workers serialize on the store's own
  /// mutex, off the cache lock. The file is opened O_APPEND with a stream
  /// buffer larger than any realistic record, so each record lands at the
  /// true end of file in one write even when several appenders (processes)
  /// share the path; a torn tail can only be the final record — which the
  /// checksummed loader skips and the next appender truncates.
  /// `fingerprint` attributes the record to the backend that compiled the
  /// block (0 = fall back to the store's attach fingerprint), so blocks a
  /// shared multi-backend cache compiles are each persisted under their own
  /// calibration.
  void append(const std::string& key, BlockKind kind, const core::CompiledBlock& block,
              std::uint64_t fingerprint = 0);

  /// Mark a key as already on disk (the attach path seeds this with every
  /// record the load pass delivered).
  void note_existing(const std::string& key);

  /// Rewrite the file in place so it holds exactly: a fresh header, every
  /// *other* calibration's records (kept verbatim and deduped last-wins —
  /// their liveness cannot be judged from here), then `entries` — this
  /// calibration's live set, typically the attached cache's residents in
  /// LRU order. Records of this fingerprint absent from `entries` (blocks
  /// the cache's LRU evicted across many append-only runs) are dropped, and
  /// torn or corrupt frames are repaired away. The rewrite is write+truncate
  /// in place, never a rename: this appender's (and any other process's)
  /// O_APPEND descriptor must keep pointing at the real file. Holds the
  /// flock exclusively for the whole pass. Returns the compacted record
  /// count, 0 on failure (the store then degrades to not-ok).
  std::size_t compact(const std::vector<SaveEntry>& entries);

  const std::string& path() const { return path_; }
  bool ok() const { return ok_; }

 private:
  std::string path_;
  std::uint64_t fingerprint_ = 0;  // default stamp for unattributed appends
  std::mutex mutex_;
  std::vector<char> iobuf_;  // stream buffer; one flush = one OS write
  std::fstream file_;
  /// Cross-process coordination: attach-time truncation/restamp holds this
  /// descriptor's flock exclusively, appends hold it shared — so one
  /// attacher can never resize away a record another process is appending.
  int lock_fd_ = -1;
  std::unordered_set<std::string> persisted_;  // keys already in the file
  bool ok_ = false;
};

}  // namespace hgp::serve
