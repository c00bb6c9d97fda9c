// tvg::DurableEngine — crash-safe durability for MutableEngine: a
// write-ahead log (wal.hpp) in front of every mutation, atomic
// checkpoints behind, and a recover() path that reassembles the exact
// pre-crash state from whatever a crash left on disk.
//
// PR 9's MutableEngine made served graphs mutable but kept every
// accepted mutation in memory: kill the process and the log is gone.
// This layer closes that hole with the classic WAL + checkpoint split:
//
//   apply(m):  validate → WAL append → engine apply → policy fsync
//   (log-before-visible: any state a crash can leave behind is
//   reconstructible from checkpoint + log replay)
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
// risk; recovery restores at least every synced mutation.
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
// THE window the temp-file dance exists for), plus the four WAL sites
// documented in wal.hpp.
//
// Thread-safe: apply/checkpoint/sync serialize on one mutex; reads
// (run/closure/counts) go straight to the MutableEngine, which has its
// own epoch-pointer concurrency — a checkpoint never blocks queries,
// only writers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "tvg/annotations.hpp"
#include "tvg/delta_overlay.hpp"
#include "tvg/query_engine.hpp"
#include "tvg/sync.hpp"
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
  ~DurableEngine();
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

  // --- mutations (logged) ---

  /// Validates, appends to the WAL, applies to the engine, then fsyncs
  /// per the sync policy — in that order, so a failure at any step
  /// leaves log and engine consistent: a validation or append error
  /// changes nothing; an fsync error surfaces AFTER the mutation is
  /// applied and logged (it is applied-but-maybe-not-durable, exactly
  /// what stats().wal.synced_sequence reports). Returns the id the
  /// mutation got. Throws std::out_of_range on bad ids,
  /// std::invalid_argument on runtime-only schedules (predicates /
  /// function latencies cannot be persisted — by design they are
  /// rejected here, not at the next checkpoint), tvg::IoError on I/O
  /// failure.
  ///
  /// One case is in doubt: the engine's own apply failing AFTER the WAL
  /// append (its snapshot build throwing, e.g. on allocation) leaves the
  /// record logged but not visible. The engine rolls itself back, this
  /// call throws, and recovery later applies the logged record — so a
  /// caller that saw the failure must treat the write as possibly
  /// committed, never as rejected. Until then the in-memory engine lags
  /// the log by that record, so an add applied afterwards is handed an
  /// id that recovery will not reproduce.
  EdgeId apply(const EdgeMutation& m) TVG_EXCLUDES(mu_);

  /// Forces a WAL fsync now (group durability for kEveryN/kInterval).
  void sync() TVG_EXCLUDES(mu_);

  /// Writes an atomic checkpoint of the current state and rotates the
  /// WAL. Blocks writers (not readers) for the duration. Throws
  /// tvg::IoError / std::invalid_argument (runtime-only schedules) with
  /// the previous checkpoint + WAL intact — a failed checkpoint loses
  /// nothing.
  void checkpoint() TVG_EXCLUDES(mu_);

  // --- reads (MutableEngine passthrough; never block on writers) ---

  [[nodiscard]] JourneyResult run(const JourneyQuery& q) const {
    return engine_.run(q);
  }
  [[nodiscard]] ClosureResult closure(const ClosureQuery& q) const {
    return engine_.closure(q);
  }
  [[nodiscard]] std::size_t node_count() const { return engine_.node_count(); }
  [[nodiscard]] std::size_t edge_count() const { return engine_.edge_count(); }
  [[nodiscard]] TimeVaryingGraph materialize() const {
    return engine_.materialize();
  }

  /// The wrapped engine, for wiring into read-side front ends (a
  /// tvg::Server serving this graph takes it as its mutable backend and
  /// only reads from it). Mutations MUST still go through apply() —
  /// writing to the wrapped engine directly bypasses the log and
  /// forfeits the crash guarantee.
  [[nodiscard]] MutableEngine& mutable_engine() noexcept { return engine_; }

  // --- compaction passthrough (in-memory; durability is unaffected) ---

  void compact() { engine_.compact(); }
  bool compact_async() { return engine_.compact_async(); }
  void wait_for_compaction() const { engine_.wait_for_compaction(); }

  // --- observability ---

  struct Stats {
    Wal::Stats wal;
    /// Mutations ever applied through this lineage (checkpoint seq +
    /// replayed + applied since open) — the durable sequence.
    std::uint64_t sequence{0};
    /// Sequence of the newest on-disk checkpoint.
    std::uint64_t checkpoint_sequence{0};
    /// Checkpoints written by THIS handle.
    std::uint64_t checkpoints_written{0};
    /// What recover() did when this handle was opened (zeros for a
    /// fresh constructor).
    RecoveryInfo recovery;
  };
  [[nodiscard]] Stats stats() const TVG_EXCLUDES(mu_);
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  /// The durable sequence (see Stats::sequence).
  [[nodiscard]] std::uint64_t sequence() const TVG_EXCLUDES(mu_);

  /// Path helpers (used by the tests to corrupt files deliberately).
  [[nodiscard]] static std::string checkpoint_path(const std::string& dir,
                                                   std::uint64_t sequence);
  [[nodiscard]] static std::string wal_path(const std::string& dir,
                                            std::uint64_t sequence);

 private:
  /// recover() tail: adopts an already-validated (graph, wal state).
  struct Recovered;
  DurableEngine(Recovered&& r, std::string dir, DurableOptions options);

  void checkpoint_locked() TVG_REQUIRES(mu_);

  std::string dir_;
  DurableOptions options_;

  mutable Mutex mu_;
  std::unique_ptr<Wal> wal_ TVG_GUARDED_BY(mu_);
  /// Totals from WAL handles closed by rotation; stats() adds the live
  /// handle's counters on top so appends/syncs/bytes never reset.
  Wal::Stats wal_accum_ TVG_GUARDED_BY(mu_){};
  std::uint64_t checkpoint_sequence_ TVG_GUARDED_BY(mu_){0};
  std::uint64_t checkpoints_written_ TVG_GUARDED_BY(mu_){0};
  RecoveryInfo recovery_;  // written once before the engine is shared

  /// Declared last so in-flight background compactions are joined
  /// before the durability state above goes away.
  MutableEngine engine_;
};

}  // namespace tvg
