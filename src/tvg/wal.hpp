// tvg::Wal — the append-only write-ahead log of EdgeMutation records
// that tvg::QueryEngine writes every mutation to once a DurableEngine
// (durable_engine.hpp) has attached one.
//
// The engine's pending delta lives in memory: without a log, a process
// crash loses every accepted mutation. The WAL is the first half of the
// standard fix (the other half is the checkpoint, see
// durable_engine.hpp): every mutation batch is appended BEFORE it
// becomes visible to readers and, per the sync policy, fsync'd right
// after, so any state a crash can leave behind is reconstructible from
// checkpoint + log replay.
//
// On-disk layout (all integers little-endian, fixed width):
//
//   file   := header record*
//   header := magic "TVGWAL01" (8 bytes)  base_sequence (u64)
//   record := payload_len (u32)  crc32c (u32)
//             sequence (u64)  assigned_edge (u32)  payload (payload_len bytes)
//
//  * payload is the binary EdgeMutation encoding: kind/label/ids plus
//    the ρ/ζ *spec strings* of the text format, appended in place by
//    serialization.hpp's append_presence / append_latency — one
//    schedule encoding (and one writer) for the whole system, not two;
//  * crc32c (Castagnoli) covers sequence + assigned_edge + payload; a
//    record whose checksum fails, whose length runs past the file, or
//    whose frame is short is a TORN TAIL: replay stops there and
//    reports the byte offset of the last good record so recovery can
//    truncate;
//  * sequence numbers are assigned monotonically by append
//    (base_sequence + 1, +2, ...); replay verifies contiguity, and
//    recovery verifies assigned_edge against what its own replay hands
//    out — edge-id stability across the crash is CHECKED, not assumed;
//  * the sync policy trades durability lag for fsync cost:
//    kAlways fsyncs every append (zero loss for every acknowledged
//    mutation), kEveryN fsyncs every n-th record, kInterval fsyncs when
//    the configured wall-clock interval elapsed since the last sync.
//    The synced_sequence stat says exactly how far durability lags.
//
// A handle that failed once bytes may have reached its file (a short or
// failed write, or a failure after the write) or that failed to rotate
// is POISONED: the file may end in a torn frame or in a record its
// writer rolled back, so every later append throws tvg::IoError and the
// owner must recover from disk. A write that failed before any byte was
// written (a runtime-only schedule, "wal.append.before") leaves the
// handle usable.
//
// Failpoint sites (failpoint.hpp): "wal.open" (before a log file is
// opened, on construction and on rotation), "wal.open.header" (a new
// file created, its header not yet written), "wal.append.before" (before
// anything is written), "wal.append.partial" (torn write: `arg` bytes of
// the batch's frames reach disk, then crash), "wal.append.after" (after
// the write, before any sync), "wal.fsync" (failed or fatal fsync).
//
// NOT thread-safe on its own: QueryEngine serializes every call under
// its writer mutex (standalone single-threaded use, as in the unit tests
// and benches, is fine). Replay/truncate are static and touch only
// closed files.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "tvg/delta_overlay.hpp"
#include "tvg/graph.hpp"

namespace tvg {

/// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78) — the checksum
/// guarding WAL records and checkpoint footers. Software table
/// implementation; `seed` chains partial computations.
[[nodiscard]] std::uint32_t crc32c(const void* data, std::size_t size,
                                   std::uint32_t seed = 0) noexcept;

/// Raised when persisted durability state is untrustworthy in a way a
/// torn tail is not: a corrupt WAL header, non-contiguous sequences,
/// an edge-id mismatch during replay, or no valid checkpoint at all.
/// Recovery NEVER silently drops committed state — it either repairs a
/// recognized crash artifact (torn tail, orphaned temp file) or throws
/// this.
class RecoveryError : public std::runtime_error {
 public:
  explicit RecoveryError(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

enum class SyncPolicy : std::uint8_t {
  kAlways,   // fsync every append: acknowledged == durable
  kEveryN,   // fsync every n-th append
  kInterval, // fsync when `interval` elapsed since the last sync
};

struct WalOptions {
  SyncPolicy sync{SyncPolicy::kAlways};
  /// kEveryN: appends per fsync (>= 1).
  std::uint64_t every_n{64};
  /// kInterval: wall-clock budget between fsyncs.
  std::chrono::milliseconds interval{50};
};

class Wal {
 public:
  /// Bytes of the file header (magic + base_sequence). A file shorter
  /// than this cannot identify itself: replay throws RecoveryError
  /// unless the caller names the base sequence it expects (see replay).
  static constexpr std::uint64_t kHeaderBytes = 16;

  /// One replayed record.
  struct Record {
    std::uint64_t sequence{0};
    /// The edge id the original apply() handed out — recovery replays
    /// the mutation and verifies it gets the same id back.
    EdgeId assigned_edge{kInvalidEdge};
    EdgeMutation mutation;
  };

  /// Opens `path` for appending, creating it (with a header carrying
  /// `base_sequence`) if absent. When the file exists the caller must
  /// have replay()'d it first and pass next_sequence = last replayed
  /// sequence + 1 (== base_sequence + 1 for a fresh file). Throws
  /// tvg::IoError on open failure (or a "wal.open" injection).
  Wal(std::string path, WalOptions options, std::uint64_t base_sequence,
      std::uint64_t next_sequence);
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends `batch` as consecutive records, record i logged with
  /// `assigned[i]` (the spans have equal sizes), and returns the last
  /// record's sequence. Every record is encoded before the first byte is
  /// written, and the frames go out in one write. WRITE ONLY — call
  /// maybe_sync() (policy-driven) or sync() (forced) for durability.
  /// Throws std::invalid_argument on runtime-only schedules (they cannot
  /// be persisted — nothing is written), tvg::IoError on a write failure
  /// or on a poisoned handle, FailPointError / CrashInjected from the
  /// injection sites. A throw once bytes may have reached the file
  /// poisons the handle (see the header comment).
  std::uint64_t append(std::span<const EdgeMutation> batch,
                       std::span<const EdgeId> assigned);
  /// A batch of one: appends `m` logged with `assigned_edge`.
  std::uint64_t append(const EdgeMutation& m, EdgeId assigned_edge) {
    return append(std::span<const EdgeMutation>(&m, 1),
                  std::span<const EdgeId>(&assigned_edge, 1));
  }

  /// Continues the log in a fresh file at `path` whose header carries
  /// `base_sequence`; the next append gets base_sequence + 1. The caller
  /// has made every record up to base_sequence durable elsewhere (a
  /// committed checkpoint), so they count as synced. Stats counters
  /// carry over. Throws tvg::IoError (or a "wal.open" injection) with
  /// the handle poisoned: the old file is closed first, and records
  /// appended to it after the checkpoint would be invisible to recovery.
  void rotate(std::string path, std::uint64_t base_sequence);

  /// Throws the tvg::IoError append() would throw on a poisoned handle;
  /// a no-op otherwise.
  void check_writable() const;

  /// Fsyncs if the sync policy says one is due (kAlways: always;
  /// kEveryN: every n-th append; kInterval: interval elapsed). Returns
  /// true when it synced. Failure semantics of sync().
  bool maybe_sync();

  /// Forces an fsync now (no-op when nothing is unsynced). Throws
  /// tvg::IoError / FailPointError on failure; the synced_sequence
  /// stat does not advance on failure.
  void sync();

  struct Stats {
    std::uint64_t appends{0};
    std::uint64_t syncs{0};
    std::uint64_t bytes_written{0};
    /// Sequence the next append will get.
    std::uint64_t next_sequence{0};
    /// Highest sequence known fsync'd (<= next_sequence - 1). Mutations
    /// above this are acknowledged but would be lost by a crash —
    /// durability lag, surfaced per sync policy.
    std::uint64_t synced_sequence{0};
  };
  [[nodiscard]] Stats stats() const noexcept { return stats_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  struct ReplayResult {
    std::vector<Record> records;
    std::uint64_t base_sequence{0};
    /// Byte offset just past the last valid record (header included) —
    /// what truncate_to() keeps when the tail is torn.
    std::uint64_t valid_bytes{0};
    /// True when the file ended in a bad/partial record (crash mid-
    /// append); the tail past valid_bytes is garbage to discard.
    bool torn{false};
  };

  /// Decodes `path` up to the first bad record. Throws tvg::IoError on
  /// open/read failure and tvg::RecoveryError (above) on a
  /// corrupt header or non-contiguous sequences — errors that mean the
  /// LOG ITSELF is not trustworthy, as opposed to a torn tail, which is
  /// an expected crash artifact reported via `torn`. Given the
  /// `base_sequence` the file name promises, a file that is a strict
  /// prefix of that header (empty included) is torn at valid_bytes 0.
  [[nodiscard]] static ReplayResult replay(
      const std::string& path,
      std::optional<std::uint64_t> base_sequence = std::nullopt);

  /// Truncates `path` to `valid_bytes` (the torn-tail repair). Throws
  /// tvg::IoError on failure.
  static void truncate_to(const std::string& path, std::uint64_t valid_bytes);

 private:
  /// Opens path_ for appending, writing the header when the file is new.
  void open_file(std::uint64_t base_sequence);

  std::string path_;
  WalOptions options_;
  int fd_{-1};
  std::uint64_t next_sequence_{1};
  std::uint64_t appends_since_sync_{0};
  std::chrono::steady_clock::time_point last_sync_;
  Stats stats_{};
  bool poisoned_{false};
};

}  // namespace tvg
