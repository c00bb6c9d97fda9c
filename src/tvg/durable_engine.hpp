// tvg::DurableEngine — crash-safe durability for the engine: a
// write-ahead log (wal.hpp) behind every mutation, atomic checkpoints,
// and a recover() path that reassembles the exact pre-crash state from
// whatever a crash left on disk.
//
// This class opens, recovers, checkpoints and reports; the write path is
// the engine's own. Once the directory holds checkpoint-0 (or the
// replayed state), the Wal is handed to the wrapped QueryEngine, whose
// apply validates, builds the next snapshot, logs, publishes and then
// fsyncs per policy (query_engine.hpp). Every write is therefore logged,
// whether it comes through apply() here or through mutable_engine().
//
//   checkpoint(): materialize base ∪ delta → text format + CRC footer
//   → temp file → fsync → rename → directory fsync → rotate the WAL.
//   The rename is the commit point: a crash on either side leaves
//   either the old checkpoint + full log, or the new checkpoint + a
//   fresh log — both recoverable, never a half-written checkpoint that
//   parses.
//
//   recover(dir): delete orphaned temp files, load the NEWEST
//   checkpoint whose CRC footer verifies (older ones are fallbacks —
//   a checkpoint that fails its checksum is skipped, not trusted),
//   replay the WAL CHAIN from it — following rotated logs forward so a
//   fallback past a rejected checkpoint still reaches every record on
//   disk, truncating a torn tail at the first bad record of the final
//   link — and verify, record by record, that replay hands out the
//   same edge id the original apply() logged. Edge-id stability across
//   a crash is CHECKED, not assumed.
//
// Durability contract, by sync policy (WalOptions): with kAlways every
// apply() that returned is durable — recovery restores it bit-
// identically (the torture suite in tests/test_recovery.cpp pins
// recovered query results against a no-crash oracle). With kEveryN /
// kInterval the stats' synced_sequence says exactly which suffix is at
// risk; recovery restores at least every synced mutation. A failed
// logged write is never acknowledged: any prefix of its batch may
// survive recovery, and the engine takes no further write (nor a
// checkpoint) until it is recovered.
//
// On-disk layout inside the engine directory:
//
//   checkpoint-<S>.ckpt   text format (serialization.hpp) of the state
//                         after S mutations, ending in a
//                         "# tvg-checkpoint seq=<S> bytes=<N>
//                         crc32c=<hex>" footer over the body (a `#`
//                         comment, so from_text parses the file as-is)
//   wal-<S>.log           WAL with base_sequence S — records S+1, S+2…
//   *.tmp                 in-flight checkpoint; deleted on recovery
//
// Failpoint sites (failpoint.hpp): "checkpoint.write" (before the body
// reaches the temp file), "checkpoint.fsync" (before the temp file
// fsync), "checkpoint.rename" (after the fsync, before the rename —
// THE window the temp-file dance exists for), the WAL sites documented
// in wal.hpp and the engine's "delta_overlay.publish" (the snapshot
// build, before the log write).
//
// Thread-safe: checkpoint / sync / stats / sequence run with the
// engine's writers excluded (its writer mutex); reads go straight to the
// engine and never wait for a checkpoint.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "tvg/delta_overlay.hpp"
#include "tvg/query_engine.hpp"
#include "tvg/wal.hpp"

namespace tvg {

struct DurableOptions {
  /// WAL sync policy (wal.hpp). Default kAlways: acknowledged == durable.
  WalOptions wal{};
  /// Checkpoints + WALs with sequence below the newest checkpoint are
  /// deleted after a successful checkpoint() when true.
  bool prune_old_files{true};
  /// Worker threads for the wrapped MutableEngine (0 = hardware
  /// concurrency, same default as MutableEngine itself).
  unsigned threads{0};
};

/// What recover() found and repaired — surfaced in Stats so operators
/// (and the torture suite) can see exactly what a crash cost.
struct RecoveryInfo {
  /// Sequence of the checkpoint recovery loaded.
  std::uint64_t checkpoint_sequence{0};
  /// WAL records replayed on top of it.
  std::uint64_t replayed_records{0};
  /// 1 when the WAL ended in a torn tail that was truncated away.
  std::uint64_t torn_tails_repaired{0};
  /// Checkpoints skipped because their CRC footer failed to verify.
  std::uint64_t checkpoints_rejected{0};
  /// Orphaned *.tmp files deleted.
  std::uint64_t temp_files_removed{0};
};

class DurableEngine {
 public:
  /// Fresh start: creates `dir` (and parents) if needed, writes
  /// checkpoint-0 of `base`, and opens wal-0. Throws tvg::IoError on
  /// I/O failure and std::invalid_argument if `dir` already holds
  /// durability state (use recover() for that — refusing beats silently
  /// shadowing a previous engine's history).
  DurableEngine(TimeVaryingGraph base, std::string dir,
                DurableOptions options = {});
  DurableEngine(const DurableEngine&) = delete;
  DurableEngine& operator=(const DurableEngine&) = delete;

  /// Rebuilds the engine from `dir` after a crash (or clean shutdown —
  /// the two are indistinguishable and handled identically). Repairs
  /// recognized crash artifacts (torn WAL tail, orphaned temp files,
  /// a half-written newest checkpoint with older valid ones behind it)
  /// and throws tvg::RecoveryError when the state is untrustworthy: no
  /// valid checkpoint at all, WAL/checkpoint sequence mismatch, replay
  /// handing out a different edge id than the log recorded.
  [[nodiscard]] static std::unique_ptr<DurableEngine> recover(
      std::string dir, DurableOptions options = {});

  // --- mutations (logged by the engine) ---

  /// The engine's apply (query_engine.hpp): validate, build, log,
  /// publish, fsync per policy. Returns the id the mutation got. Throws
  /// std::out_of_range on bad ids, std::invalid_argument on runtime-only
  /// schedules (predicates / function latencies cannot be persisted —
  /// rejected here, not at the next checkpoint), tvg::IoError on I/O
  /// failure or once a failed write has poisoned the log.
  EdgeId apply(const EdgeMutation& m) { return engine_.apply(m); }

  /// Forces a WAL fsync now (group durability for kEveryN/kInterval).
  void sync();

  /// Writes an atomic checkpoint of the current state and rotates the
  /// WAL. Blocks writers (not readers) for the duration. Throws
  /// tvg::IoError / std::invalid_argument (runtime-only schedules) with
  /// the previous checkpoint + WAL intact — a failed checkpoint loses
  /// nothing; a failed rotation poisons the log.
  void checkpoint();

  [[nodiscard]] TimeVaryingGraph materialize() const {
    return engine_.materialize();
  }

  /// The wrapped engine, for reads and for wiring into front ends (a
  /// tvg::Server serving this graph). Its writes are logged like apply().
  [[nodiscard]] MutableEngine& mutable_engine() noexcept { return engine_; }

  // --- compaction passthrough (in-memory; durability is unaffected) ---

  void compact() { engine_.compact(); }
  bool compact_async() { return engine_.compact_async(); }
  void wait_for_compaction() const { engine_.wait_for_compaction(); }

  // --- observability ---

  struct Stats {
    Wal::Stats wal;
    /// The WAL's last sequence: mutations logged through this lineage
    /// (checkpoint seq + replayed + logged since open).
    std::uint64_t sequence{0};
    /// Sequence of the newest on-disk checkpoint.
    std::uint64_t checkpoint_sequence{0};
    /// Checkpoints written by THIS handle.
    std::uint64_t checkpoints_written{0};
    /// What recover() did when this handle was opened (zeros for a
    /// fresh constructor).
    RecoveryInfo recovery;
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  /// The durable sequence (see Stats::sequence).
  [[nodiscard]] std::uint64_t sequence() const;

  /// Path helpers (used by the tests to corrupt files deliberately).
  [[nodiscard]] static std::string checkpoint_path(const std::string& dir,
                                                   std::uint64_t sequence);
  [[nodiscard]] static std::string wal_path(const std::string& dir,
                                            std::uint64_t sequence);

 private:
  /// Fresh-start tail: `body` is checkpoint-0 of `base`, serialized by
  /// the public constructor after its directory check (no copy of the
  /// graph the engine then owns).
  DurableEngine(const std::string& body, TimeVaryingGraph&& base,
                std::string&& dir, DurableOptions options);
  /// recover() tail: adopts an already-validated (graph, wal state).
  struct Recovered;
  DurableEngine(Recovered&& r, std::string dir, DurableOptions options);

  std::string dir_;
  DurableOptions options_;
  // Written only by checkpoint() and read by stats(), both with the
  // engine's writers excluded.
  std::uint64_t checkpoint_sequence_{0};
  std::uint64_t checkpoints_written_{0};
  RecoveryInfo recovery_;  // written once before the engine is shared
  MutableEngine engine_;
};

}  // namespace tvg
