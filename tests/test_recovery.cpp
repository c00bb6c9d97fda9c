// Crash-recovery torture suite for tvg::DurableEngine
// (durable_engine.hpp): drive seeded mutation/checkpoint workloads into
// deterministic injected faults (failpoint.hpp) at every WAL and
// checkpoint site, "crash" (abandon the engine), recover(), and verify
// the recovered engine is BIT-IDENTICAL to a no-crash oracle replaying
// the same mutation prefix — serialized text, journey results and
// closure rows all compared with operator==.
//
// Determinism/scale: every schedule is a pure function of
// (TVG_RECOVERY_SEED, site, variation, round). One run covers
// sites x variations x rounds schedules; CI sweeps TVG_RECOVERY_SEED
// over 16 values, so the matrix comfortably clears the 200-schedule
// floor with every schedule replayable from its coordinates.
#include "tvg/durable_engine.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "tvg/failpoint.hpp"
#include "tvg/generators.hpp"
#include "tvg/io.hpp"
#include "tvg/serialization.hpp"
#include "scoped_dir.hpp"

namespace fs = std::filesystem;

namespace tvg {
namespace {

std::uint64_t env_seed() {
  const char* env = std::getenv("TVG_RECOVERY_SEED");
  return env ? std::strtoull(env, nullptr, 10) : 0;
}

ScopedDir fresh_dir(const std::string& tag) {
  return ScopedDir("recovery", tag);
}

TimeVaryingGraph base_graph(std::uint64_t seed) {
  RandomPeriodicParams params;
  params.nodes = 10;
  params.edges = 24;
  params.period = 8;
  params.density = 0.35;
  params.max_latency = 2;
  params.seed = seed;
  return make_random_periodic(params);
}

Presence random_presence(std::mt19937_64& rng) {
  const Time period = 6 + static_cast<Time>(rng() % 4);
  IntervalSet pattern;
  bool any = false;
  for (Time t = 0; t < period; ++t) {
    if (rng() % 3 == 0) {
      pattern.insert_point(t);
      any = true;
    }
  }
  if (!any) pattern.insert_point(static_cast<Time>(rng() % period));
  return Presence::periodic(period, std::move(pattern));
}

/// Valid mutation against the CURRENT counts (the stream tracker below
/// keeps them; recovery must never see a validation failure).
EdgeMutation random_mutation(std::mt19937_64& rng, std::size_t nodes,
                             std::size_t edges) {
  const auto node = [&] { return static_cast<NodeId>(rng() % nodes); };
  const auto edge = [&] { return static_cast<EdgeId>(rng() % edges); };
  switch (rng() % 8) {
    case 0:
    case 1:
      return EdgeMutation::add_edge(node(), node(),
                                    rng() % 2 == 0 ? 'a' : 'b',
                                    random_presence(rng),
                                    Latency::constant(1 + Time(rng() % 3)));
    case 2:
      return EdgeMutation::remove_edge(edge());
    case 3:
    case 4:
    case 5:
      return EdgeMutation::patch_presence(edge(), random_presence(rng));
    default:
      return EdgeMutation::override_latency(
          edge(), Latency::constant(1 + Time(rng() % 4)));
  }
}

/// The no-crash oracle at sequence `upto`: the base graph with the
/// first `upto` mutations of the attempted stream applied in order.
TimeVaryingGraph oracle_at(std::uint64_t base_seed,
                           const std::vector<EdgeMutation>& stream,
                           std::uint64_t upto) {
  QueryEngine oracle(base_graph(base_seed), 1);
  for (std::uint64_t i = 0; i < upto; ++i) oracle.apply(stream[i]);
  return oracle.materialize();
}

/// Bit-identity of recovered vs oracle: the serialized graphs match
/// byte for byte, and so do query results through both engines.
void expect_bit_identical(DurableEngine& recovered,
                          const TimeVaryingGraph& oracle,
                          const std::string& where) {
  const TimeVaryingGraph got = recovered.materialize();
  ASSERT_EQ(to_text(got), to_text(oracle)) << where;
  const QueryEngine ref(oracle, 1, CacheConfig::disabled());
  const auto nodes = static_cast<NodeId>(oracle.node_count());
  for (NodeId s = 0; s < std::min<NodeId>(nodes, 4); ++s) {
    const JourneyQuery q = JourneyQuery::foremost(s, 0);
    EXPECT_EQ(recovered.mutable_engine().run(q), ref.run(q)) << where << " source " << s;
  }
  ClosureQuery cq;
  cq.threads = 1;
  EXPECT_EQ(recovered.mutable_engine().closure(cq), ref.closure(cq)) << where;
}

// ---------------------------------------------------------------------------
// Deterministic single-scenario tests
// ---------------------------------------------------------------------------

TEST(DurableEngine, FreshConstructRejectsExistingState) {
  const ScopedDir dir = fresh_dir("fresh_reject");
  { DurableEngine engine(base_graph(1), dir, {}); }
  EXPECT_THROW(DurableEngine(base_graph(1), dir, {}), std::invalid_argument);
}

TEST(DurableEngine, RecoverEmptyOrMissingDirThrows) {
  const ScopedDir dir = fresh_dir("empty");
  EXPECT_THROW((void)DurableEngine::recover(dir), RecoveryError);
  fs::create_directories(dir);
  EXPECT_THROW((void)DurableEngine::recover(dir), RecoveryError);
}

TEST(DurableEngine, RecoverAfterCleanShutdownIsExact) {
  const ScopedDir dir = fresh_dir("clean");
  std::mt19937_64 rng(7);
  std::vector<EdgeMutation> stream;
  std::size_t edges = base_graph(7).edge_count();
  std::string expected;
  {
    DurableEngine engine(base_graph(7), dir, {});
    for (int i = 0; i < 20; ++i) {
      EdgeMutation m = random_mutation(rng, engine.mutable_engine().node_count(), edges);
      if (m.kind == EdgeMutation::Kind::kAddEdge) ++edges;
      engine.apply(m);
      stream.push_back(std::move(m));
    }
    EXPECT_EQ(engine.sequence(), 20u);
    expected = to_text(engine.materialize());
  }
  const auto recovered = DurableEngine::recover(dir);
  EXPECT_EQ(recovered->sequence(), 20u);
  EXPECT_EQ(recovered->stats().recovery.replayed_records, 20u);
  EXPECT_EQ(to_text(recovered->materialize()), expected);
  expect_bit_identical(*recovered, oracle_at(7, stream, 20), "clean");
  // The recovered engine keeps serving writes.
  EXPECT_NO_THROW(recovered->apply(EdgeMutation::remove_edge(0)));
  EXPECT_EQ(recovered->sequence(), 21u);
}

TEST(DurableEngine, CheckpointShortensReplayAndPrunes) {
  const ScopedDir dir = fresh_dir("ckpt");
  std::mt19937_64 rng(11);
  std::vector<EdgeMutation> stream;
  std::size_t edges = base_graph(11).edge_count();
  {
    DurableEngine engine(base_graph(11), dir, {});
    for (int i = 0; i < 12; ++i) {
      EdgeMutation m = random_mutation(rng, engine.mutable_engine().node_count(), edges);
      if (m.kind == EdgeMutation::Kind::kAddEdge) ++edges;
      engine.apply(m);
      stream.push_back(std::move(m));
    }
    engine.checkpoint();
    EXPECT_EQ(engine.stats().checkpoint_sequence, 12u);
    for (int i = 0; i < 5; ++i) {
      EdgeMutation m = random_mutation(rng, engine.mutable_engine().node_count(), edges);
      if (m.kind == EdgeMutation::Kind::kAddEdge) ++edges;
      engine.apply(m);
      stream.push_back(std::move(m));
    }
    // Pruning removed the rotated-away generation.
    EXPECT_FALSE(fs::exists(DurableEngine::checkpoint_path(dir, 0)));
    EXPECT_FALSE(fs::exists(DurableEngine::wal_path(dir, 0)));
  }
  const auto recovered = DurableEngine::recover(dir);
  EXPECT_EQ(recovered->sequence(), 17u);
  // Only the post-checkpoint suffix replays.
  EXPECT_EQ(recovered->stats().recovery.replayed_records, 5u);
  EXPECT_EQ(recovered->stats().recovery.checkpoint_sequence, 12u);
  expect_bit_identical(*recovered, oracle_at(11, stream, 17), "ckpt");
}

TEST(DurableEngine, MissingWalAfterCheckpointRecoversAtCheckpoint) {
  // The crash-between-rename-and-rotation window: the new checkpoint
  // committed but its (empty) WAL never got created.
  const ScopedDir dir = fresh_dir("no_wal");
  {
    DurableEngine engine(base_graph(3), dir, {});
    engine.apply(EdgeMutation::remove_edge(0));
    engine.checkpoint();
  }
  fs::remove(DurableEngine::wal_path(dir, 1));
  const auto recovered = DurableEngine::recover(dir);
  EXPECT_EQ(recovered->sequence(), 1u);
  EXPECT_EQ(recovered->stats().recovery.replayed_records, 0u);
  // And the WAL was recreated so new mutations land normally.
  recovered->apply(EdgeMutation::remove_edge(1));
  EXPECT_EQ(recovered->sequence(), 2u);
}

/// Checkpoint-1 committed, then wal-1.log cut to its first `keep` bytes:
/// the crash between creating a log and writing its header.
ScopedDir dir_with_short_wal(const std::string& tag, std::size_t keep) {
  ScopedDir dir = fresh_dir(tag);
  {
    DurableEngine engine(base_graph(3), dir, {});
    engine.apply(EdgeMutation::remove_edge(0));
    engine.checkpoint();
  }
  fs::resize_file(DurableEngine::wal_path(dir, 1), keep);
  return dir;
}

void expect_short_wal_repaired(const std::string& dir) {
  const std::vector<EdgeMutation> stream = {EdgeMutation::remove_edge(0),
                                            EdgeMutation::remove_edge(1)};
  {
    const auto recovered = DurableEngine::recover(dir);
    EXPECT_EQ(recovered->sequence(), 1u);
    EXPECT_EQ(recovered->stats().recovery.torn_tails_repaired, 1u);
    EXPECT_EQ(recovered->stats().recovery.replayed_records, 0u);
    recovered->apply(stream[1]);
    EXPECT_EQ(recovered->sequence(), 2u);
  }
  const auto again = DurableEngine::recover(dir);
  EXPECT_EQ(again->sequence(), 2u);
  EXPECT_EQ(again->stats().recovery.torn_tails_repaired, 0u);
  EXPECT_EQ(again->stats().recovery.replayed_records, 1u);
  expect_bit_identical(*again, oracle_at(3, stream, 2), "short wal");
}

TEST(DurableEngine, EmptyWalAfterCheckpointIsATornHeader) {
  expect_short_wal_repaired(dir_with_short_wal("empty_wal", 0));
}

TEST(DurableEngine, HeaderPrefixWalAfterCheckpointIsATornHeader) {
  expect_short_wal_repaired(dir_with_short_wal("prefix_wal", 7));
}

TEST(DurableEngine, CrashBeforeRotatedWalHeaderRecovers) {
  // The "wal.open.header" site: checkpoint-1 committed and wal-1.log
  // created, then the process dies before the header reaches it.
  const FailPointGuard guard;
  const ScopedDir dir = fresh_dir("header_crash");
  {
    DurableEngine engine(base_graph(3), dir, {});
    engine.apply(EdgeMutation::remove_edge(0));
    FailPointRegistry::instance().arm_on_hit("wal.open.header", 1,
                                             FailPointAction::crash());
    EXPECT_THROW(engine.checkpoint(), CrashInjected);
  }
  FailPointRegistry::instance().disarm_all();
  ASSERT_EQ(fs::file_size(DurableEngine::wal_path(dir, 1)), 0u);
  expect_short_wal_repaired(dir);
}

TEST(DurableEngine, FullLengthWalHeaderWithWrongMagicIsRefused) {
  const ScopedDir dir = dir_with_short_wal("bad_magic_wal", 0);
  {
    std::ofstream out(DurableEngine::wal_path(dir, 1), std::ios::binary);
    const std::string bogus = "NOTAWAL1" + std::string(8, '\0');
    out.write(bogus.data(), static_cast<std::streamsize>(bogus.size()));
  }
  ASSERT_EQ(fs::file_size(DurableEngine::wal_path(dir, 1)), 16u);
  EXPECT_THROW((void)DurableEngine::recover(dir), RecoveryError);
}

TEST(DurableEngine, FallbackChainsThroughRotatedWals) {
  // Corrupt the NEWEST checkpoint with pruning off: recovery must fall
  // back to the older checkpoint AND chain through both WAL
  // generations — records living only in the newer log must survive.
  const ScopedDir dir = fresh_dir("chain");
  DurableOptions options;
  options.prune_old_files = false;
  std::mt19937_64 rng(13);
  std::vector<EdgeMutation> stream;
  std::size_t edges = base_graph(13).edge_count();
  {
    DurableEngine engine(base_graph(13), dir, options);
    for (int i = 0; i < 6; ++i) {
      EdgeMutation m = random_mutation(rng, engine.mutable_engine().node_count(), edges);
      if (m.kind == EdgeMutation::Kind::kAddEdge) ++edges;
      engine.apply(m);
      stream.push_back(std::move(m));
    }
    engine.checkpoint();
    for (int i = 0; i < 4; ++i) {
      EdgeMutation m = random_mutation(rng, engine.mutable_engine().node_count(), edges);
      if (m.kind == EdgeMutation::Kind::kAddEdge) ++edges;
      engine.apply(m);
      stream.push_back(std::move(m));
    }
  }
  // Flip a byte in the middle of checkpoint-6's body.
  const std::string ckpt = DurableEngine::checkpoint_path(dir, 6);
  std::string text = read_text_file(ckpt);
  text[text.size() / 2] ^= 0x20;
  write_text_file(ckpt, text);

  const auto recovered = DurableEngine::recover(dir, options);
  EXPECT_EQ(recovered->stats().recovery.checkpoints_rejected, 1u);
  EXPECT_EQ(recovered->stats().recovery.checkpoint_sequence, 0u);
  EXPECT_EQ(recovered->stats().recovery.replayed_records, 10u);
  EXPECT_EQ(recovered->sequence(), 10u);
  expect_bit_identical(*recovered, oracle_at(13, stream, 10), "chain");
}

/// Appends `bad` (logged with `assigned_edge`) to wal-0 of `dir` after
/// three valid patches, and returns the bad record's sequence.
std::uint64_t append_after_valid_records(const std::string& dir,
                                         const EdgeMutation& bad,
                                         EdgeId assigned_edge) {
  const auto replayed = Wal::replay(DurableEngine::wal_path(dir, 0));
  std::uint64_t seq =
      replayed.records.empty() ? 1 : replayed.records.back().sequence + 1;
  Wal wal(DurableEngine::wal_path(dir, 0), WalOptions{}, 0, seq);
  for (EdgeId e = 0; e < 3; ++e, ++seq) {
    wal.append(EdgeMutation::override_latency(e, Latency::constant(2)), e);
  }
  wal.append(bad, assigned_edge);
  wal.sync();
  return seq;
}

std::string recovery_error_of(const std::string& dir) {
  try {
    (void)DurableEngine::recover(dir);
  } catch (const RecoveryError& e) {
    return e.what();
  }
  return "<recovered>";
}

TEST(DurableEngine, EdgeIdMismatchInLogIsRefused) {
  const ScopedDir dir = fresh_dir("id_mismatch");
  { DurableEngine engine(base_graph(5), dir, {}); }
  // Forge a record whose assigned id does not match what replay will
  // hand out (an add on a 24-edge base must get id 24, not 99). The
  // whole log replays as one batch; the error still names the record.
  const std::uint64_t seq = append_after_valid_records(
      dir,
      EdgeMutation::add_edge(0, 1, 'a', Presence::always(),
                             Latency::constant(1)),
      /*assigned_edge=*/99);
  EXPECT_EQ(seq, 4u);
  const std::string what = recovery_error_of(dir);
  EXPECT_NE(what.find("record 4 logged edge id 99 but replay assigned 24"),
            std::string::npos)
      << what;
}

TEST(DurableEngine, OutOfRangeRecordInLogIsRefused) {
  const ScopedDir dir = fresh_dir("out_of_range");
  { DurableEngine engine(base_graph(5), dir, {}); }
  const std::uint64_t seq = append_after_valid_records(
      dir, EdgeMutation::patch_presence(500, Presence::always()),
      /*assigned_edge=*/500);
  const std::string what = recovery_error_of(dir);
  EXPECT_NE(what.find("replaying record " + std::to_string(seq) + ":"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("edge out of range"), std::string::npos) << what;
}

TEST(DurableEngine, SyncPolicyLagIsVisibleAndRecoveryKeepsSyncedPrefix) {
  const ScopedDir dir = fresh_dir("lag");
  DurableOptions options;
  options.wal.sync = SyncPolicy::kEveryN;
  options.wal.every_n = 4;
  {
    DurableEngine engine(base_graph(9), dir, options);
    for (int i = 0; i < 6; ++i) {
      engine.apply(EdgeMutation::override_latency(EdgeId(i),
                                                  Latency::constant(2)));
    }
    const auto s = engine.stats();
    EXPECT_EQ(s.sequence, 6u);
    EXPECT_EQ(s.wal.synced_sequence, 4u);  // appends 5, 6 are the lag
    engine.sync();
    EXPECT_EQ(engine.stats().wal.synced_sequence, 6u);
  }
  // Clean close: everything reached the file, so recovery sees all 6
  // (the lag is a guarantee floor, not a ceiling).
  const auto recovered = DurableEngine::recover(dir, options);
  EXPECT_GE(recovered->sequence(), 6u);
}

TEST(DurableEngine, WalStatsAccumulateAcrossRotation) {
  const ScopedDir dir = fresh_dir("stats");
  DurableEngine engine(base_graph(2), dir, {});
  for (int i = 0; i < 3; ++i) {
    engine.apply(EdgeMutation::remove_edge(EdgeId(i)));
  }
  const auto before = engine.stats();
  EXPECT_EQ(before.wal.appends, 3u);
  EXPECT_GT(before.wal.bytes_written, 0u);
  engine.checkpoint();
  engine.apply(EdgeMutation::remove_edge(3));
  const auto after = engine.stats();
  // Rotation must not reset the counters the stats section reports.
  EXPECT_EQ(after.wal.appends, 4u);
  EXPECT_GT(after.wal.bytes_written, before.wal.bytes_written);
  EXPECT_EQ(after.checkpoints_written, 2u);  // fresh-init + explicit
  EXPECT_EQ(after.sequence, 4u);
}

// ---------------------------------------------------------------------------
// One logged write path: failed writes never fork the log from the engine
// ---------------------------------------------------------------------------

EdgeMutation fresh_add(NodeId from, NodeId to) {
  return EdgeMutation::add_edge(from, to, 'a', Presence::always(),
                                Latency::constant(1));
}

TEST(DurableEngine, FailedSnapshotBuildIsNeitherLoggedNorVisible) {
  // The snapshot build runs before the log write: when it fails, the
  // record is nowhere, and the next add gets the id it would have had.
  const FailPointGuard guard;
  const ScopedDir dir = fresh_dir("publish_fail");
  const EdgeId base_edges = base_graph(4).edge_count();
  std::vector<EdgeMutation> acked;
  {
    DurableEngine engine(base_graph(4), dir, {});
    acked.push_back(fresh_add(0, 1));
    EXPECT_EQ(engine.apply(acked.back()), base_edges);
    FailPointRegistry::instance().arm_on_hit("delta_overlay.publish", 1,
                                             FailPointAction::error());
    EXPECT_THROW(engine.apply(fresh_add(1, 2)), FailPointError);
    acked.push_back(fresh_add(2, 3));
    EXPECT_EQ(engine.apply(acked.back()), base_edges + 1);
    EXPECT_EQ(engine.sequence(), 2u);
    EXPECT_EQ(to_text(engine.materialize()), to_text(oracle_at(4, acked, 2)));
  }
  const auto recovered = DurableEngine::recover(dir);
  EXPECT_EQ(recovered->sequence(), 2u);
  expect_bit_identical(*recovered, oracle_at(4, acked, 2), "publish");
}

TEST(DurableEngine, WriteFailingAfterItsLogWriteRefusesLaterWrites) {
  // The record reached the log but the apply failed: it may survive
  // recovery, so the engine takes no write that would get its id.
  const FailPointGuard guard;
  const ScopedDir dir = fresh_dir("after_fail");
  std::vector<EdgeMutation> stream = {fresh_add(0, 1), fresh_add(1, 2)};
  {
    DurableEngine engine(base_graph(4), dir, {});
    engine.apply(stream[0]);
    FailPointRegistry::instance().arm_on_hit("wal.append.after", 1,
                                             FailPointAction::error());
    EXPECT_THROW(engine.apply(stream[1]), FailPointError);
    EXPECT_EQ(engine.mutable_engine().sequence(), 1u);
    EXPECT_THROW(engine.apply(fresh_add(2, 3)), IoError);
    EXPECT_THROW(engine.mutable_engine().apply(fresh_add(2, 3)), IoError);
    EXPECT_THROW(engine.checkpoint(), IoError);
    EXPECT_EQ(engine.mutable_engine().sequence(), 1u);
  }
  const auto recovered = DurableEngine::recover(dir);
  EXPECT_EQ(recovered->sequence(), 2u);
  expect_bit_identical(*recovered, oracle_at(4, stream, 2), "after");
  recovered->apply(fresh_add(2, 3));
  EXPECT_EQ(recovered->sequence(), 3u);
}

TEST(DurableEngine, ShortWalWriteRefusesLaterWritesAndLosesNoAck) {
  // A torn frame at the end of the log: records appended after it would
  // be cut away with it by recovery's tail repair, so none is taken.
  const FailPointGuard guard;
  const ScopedDir dir = fresh_dir("short_write");
  std::vector<EdgeMutation> acked = {fresh_add(0, 1)};
  {
    DurableEngine engine(base_graph(4), dir, {});  // kAlways
    engine.apply(acked[0]);
    FailPointRegistry::instance().arm_on_hit(
        "wal.append.partial", 1,
        FailPointAction{FailPointAction::Kind::kError, 7});
    EXPECT_THROW(engine.apply(fresh_add(1, 2)), FailPointError);
    for (EdgeId e = 0; e < 3; ++e) {
      EXPECT_THROW(engine.apply(EdgeMutation::remove_edge(e)), IoError);
    }
    EXPECT_EQ(engine.mutable_engine().sequence(), 1u);
  }
  const auto recovered = DurableEngine::recover(dir);
  EXPECT_EQ(recovered->stats().recovery.torn_tails_repaired, 1u);
  EXPECT_EQ(recovered->sequence(), 1u);
  expect_bit_identical(*recovered, oracle_at(4, acked, 1), "short");
}

TEST(DurableEngine, FailedRotationPoisonsTheLog) {
  // The checkpoint committed but wal-<seq> could not be opened: a write
  // appended to the old log would be invisible to recovery, which
  // replays from the new checkpoint.
  const FailPointGuard guard;
  const ScopedDir dir = fresh_dir("rotation_fail");
  std::vector<EdgeMutation> acked = {EdgeMutation::remove_edge(0),
                                     EdgeMutation::remove_edge(1)};
  {
    DurableEngine engine(base_graph(6), dir, {});
    for (const EdgeMutation& m : acked) engine.apply(m);
    FailPointRegistry::instance().arm_on_hit("wal.open", 1,
                                             FailPointAction::error());
    EXPECT_THROW(engine.checkpoint(), FailPointError);
    EXPECT_TRUE(fs::exists(DurableEngine::checkpoint_path(dir, 2)));
    EXPECT_THROW(engine.checkpoint(), IoError);
    EXPECT_THROW(engine.apply(EdgeMutation::remove_edge(2)), IoError);
    EXPECT_NO_THROW(engine.sync());  // nothing past the checkpoint
    EXPECT_EQ(engine.sequence(), 2u);
    EXPECT_EQ(engine.stats().wal.synced_sequence, 2u);
  }
  const auto recovered = DurableEngine::recover(dir);
  EXPECT_EQ(recovered->stats().recovery.checkpoint_sequence, 2u);
  EXPECT_EQ(recovered->sequence(), 2u);
  expect_bit_identical(*recovered, oracle_at(6, acked, 2), "rotation");
  recovered->apply(EdgeMutation::remove_edge(2));
  EXPECT_EQ(recovered->sequence(), 3u);
}

TEST(DurableEngine, MutableEngineWritesAreLogged) {
  // A front end wired to mutable_engine() writes through the same
  // logged path as DurableEngine::apply.
  const ScopedDir dir = fresh_dir("mutable_logged");
  std::vector<EdgeMutation> stream = {fresh_add(0, 1), fresh_add(1, 2),
                                      fresh_add(2, 3)};
  std::string expected;
  {
    DurableEngine engine(base_graph(4), dir, {});
    engine.apply(stream[0]);
    engine.mutable_engine().apply(stream[1]);
    (void)engine.mutable_engine().apply(std::span(stream).subspan(2));
    EXPECT_EQ(engine.sequence(), 3u);
    expected = to_text(engine.materialize());
  }
  const auto recovered = DurableEngine::recover(dir);
  EXPECT_EQ(recovered->sequence(), 3u);
  EXPECT_EQ(to_text(recovered->materialize()), expected);
  expect_bit_identical(*recovered, oracle_at(4, stream, 3), "mutable");
}

// ---------------------------------------------------------------------------
// The torture matrix
// ---------------------------------------------------------------------------

struct TortureOutcome {
  std::uint64_t acked{0};      // applies that returned
  std::uint64_t attempted{0};  // applies started (acked + <=1 in-flight)
  bool crashed{false};
};

/// One schedule: run a seeded workload against an armed site until the
/// injected fault fires (or the workload completes), then recover and
/// compare against the oracle prefix.
void run_torture_schedule(const std::string& site, std::uint64_t seed,
                          bool use_error_kind, const std::string& tag) {
  SCOPED_TRACE("site=" + site + " seed=" + std::to_string(seed) +
               " kind=" + (use_error_kind ? "error" : "crash"));
  const FailPointGuard guard;
  const ScopedDir dir = fresh_dir(tag);
  std::mt19937_64 rng(seed * 2654435761u + 1);

  std::vector<EdgeMutation> stream;
  TortureOutcome outcome;
  std::size_t edges = base_graph(seed).edge_count();
  {
    DurableEngine engine(base_graph(seed), dir, {});  // kAlways

    // Arm AFTER the fresh-init checkpoint so the fault lands somewhere
    // in the workload below. hit_no and the torn-write arg come from
    // the seed: every schedule is replayable from its coordinates.
    const std::uint64_t hit_no = 1 + rng() % 5;
    const std::uint64_t arg = rng() % 96;
    const FailPointAction action = use_error_kind
                                       ? FailPointAction::error()
                                       : FailPointAction::crash(arg);
    FailPointRegistry::instance().arm_on_hit(site, hit_no, action);

    try {
      for (int i = 0; i < 40; ++i) {
        EdgeMutation m = random_mutation(rng, engine.mutable_engine().node_count(), edges);
        const bool is_add = m.kind == EdgeMutation::Kind::kAddEdge;
        stream.push_back(m);
        ++outcome.attempted;
        engine.apply(m);
        ++outcome.acked;
        if (is_add) ++edges;
        if (i % 13 == 12) engine.checkpoint();
      }
      engine.checkpoint();
    } catch (const CrashInjected&) {
      outcome.crashed = true;  // simulated process death: abandon engine
    } catch (const FailPointError&) {
      outcome.crashed = true;  // simulated syscall failure: stop, recover
    } catch (const IoError&) {
      outcome.crashed = true;  // e.g. WAL poisoned after failed rotation
    }
  }
  FailPointRegistry::instance().disarm_all();

  const auto recovered = DurableEngine::recover(dir);
  const std::uint64_t r = recovered->sequence();

  // Zero acknowledged loss (kAlways: acked == fsynced), and nothing
  // recovered that was never attempted. An unacked in-flight mutation
  // MAY survive (crash after append, before the ack) — that is the
  // at-least guarantee, not a violation.
  ASSERT_GE(r, outcome.acked);
  ASSERT_LE(r, outcome.attempted);

  // Bit-identity against the no-crash oracle at the recovered prefix.
  expect_bit_identical(*recovered, oracle_at(seed, stream, r), "torture");

  // And the recovered engine is live: it accepts a write and survives
  // ANOTHER recovery (recover-of-recovered is exact, not lossy).
  recovered->apply(EdgeMutation::remove_edge(0));
  EXPECT_EQ(recovered->sequence(), r + 1);
}

TEST(RecoveryTorture, SeededFaultMatrix) {
  const std::uint64_t base = env_seed();
  const std::vector<std::string> sites = {
      "delta_overlay.publish", "wal.open",         "wal.append.before",
      "wal.append.partial",    "wal.append.after", "wal.fsync",
      "checkpoint.write",      "checkpoint.fsync", "checkpoint.rename",
      "wal.open.header",
  };
  // 10 sites x 2 fault kinds x 2 rounds = 40 schedules per run; CI
  // sweeps 16 TVG_RECOVERY_SEED values for 640 schedules total.
  int schedule = 0;
  for (const std::string& site : sites) {
    for (const bool use_error : {false, true}) {
      for (std::uint64_t round = 0; round < 2; ++round) {
        run_torture_schedule(
            site, base * 1000 + round * 100 + std::uint64_t(schedule),
            use_error, "torture_" + std::to_string(base) + "_" +
                           std::to_string(schedule) + "_" +
                           std::to_string(round));
        ++schedule;
      }
    }
  }
}

TEST(RecoveryTorture, SeededRandomSiteSoak) {
  // Seeded per-hit coin over EVERY site at once: the same seed replays
  // the same multi-site fault schedule. Complements the matrix above
  // with faults at unplanned combinations of hits.
  const std::uint64_t base = env_seed();
  const std::vector<std::string> sites = {
      "wal.append.before", "wal.append.partial", "wal.append.after",
      "wal.fsync",         "checkpoint.write",   "checkpoint.rename",
  };
  for (std::uint64_t round = 0; round < 2; ++round) {
    const std::uint64_t seed = base * 31 + round;
    SCOPED_TRACE("soak seed=" + std::to_string(seed));
    const FailPointGuard guard;
    const ScopedDir dir =
        fresh_dir("soak_" + std::to_string(base) + "_" +
                  std::to_string(round));
    std::mt19937_64 rng(seed ^ 0x9E3779B97F4A7C15ULL);

    std::vector<EdgeMutation> stream;
    std::uint64_t acked = 0;
    std::size_t edges = base_graph(seed).edge_count();
    {
      DurableEngine engine(base_graph(seed), dir, {});
      for (std::size_t i = 0; i < sites.size(); ++i) {
        FailPointRegistry::instance().arm_seeded(
            sites[i], seed + i, 60000, FailPointAction::crash(rng() % 64));
      }
      try {
        for (int i = 0; i < 60; ++i) {
          EdgeMutation m = random_mutation(rng, engine.mutable_engine().node_count(), edges);
          const bool is_add = m.kind == EdgeMutation::Kind::kAddEdge;
          stream.push_back(m);
          engine.apply(m);
          ++acked;
          if (is_add) ++edges;
          if (i % 17 == 16) engine.checkpoint();
        }
      } catch (const CrashInjected&) {
      } catch (const IoError&) {
      }
    }
    FailPointRegistry::instance().disarm_all();

    const auto recovered = DurableEngine::recover(dir);
    const std::uint64_t r = recovered->sequence();
    ASSERT_GE(r, acked);
    ASSERT_LE(r, stream.size());
    expect_bit_identical(*recovered, oracle_at(seed, stream, r), "soak");
  }
}

// ---------------------------------------------------------------------------
// Concurrency (TSan lane): apply / checkpoint / read racing freely.
// ---------------------------------------------------------------------------

TEST(RecoveryConcurrency, ConcurrentApplyCheckpointReadThenRecover) {
  const ScopedDir dir = fresh_dir("concurrent");
  std::string final_text;
  std::uint64_t final_seq = 0;
  {
    DurableEngine engine(base_graph(21), dir, {});
    // The third writer goes through mutable_engine(): the same logged
    // path, so its writes are part of the recovered state too.
    const auto writer = [&engine](std::uint64_t seed, bool via_engine) {
      std::mt19937_64 rng(seed);
      MutableEngine& me = engine.mutable_engine();
      for (int i = 0; i < 30; ++i) {
        // Only override_latency/patch_presence on BASE edges: valid
        // regardless of interleaving, so the writers run lock-free of
        // each other's edge-count changes.
        const auto e = static_cast<EdgeId>(rng() % 24);
        EdgeMutation m;
        if (rng() % 2 == 0) {
          m = EdgeMutation::override_latency(
              e, Latency::constant(1 + Time(rng() % 3)));
        } else {
          IntervalSet pattern;
          pattern.insert_point(static_cast<Time>(rng() % 6));
          m = EdgeMutation::patch_presence(
              e, Presence::periodic(6, std::move(pattern)));
        }
        if (via_engine) {
          me.apply(m);
        } else {
          engine.apply(m);
        }
      }
    };
    std::atomic<bool> writing{true};
    std::thread w1(writer, 101, false);
    std::thread w2(writer, 202, false);
    std::thread w3(writer, 303, true);
    std::thread checkpointer([&engine] {
      for (int i = 0; i < 4; ++i) engine.checkpoint();
    });
    std::thread compactor([&engine, &writing] {
      while (writing.load()) {
        (void)engine.compact_async();
        std::this_thread::yield();
      }
    });
    std::thread reader([&engine] {
      for (int i = 0; i < 20; ++i) {
        (void)engine.mutable_engine().run(JourneyQuery::foremost(0, 0));
        (void)engine.stats();
      }
    });
    w1.join();
    w2.join();
    w3.join();
    writing.store(false);
    checkpointer.join();
    compactor.join();
    reader.join();
    engine.wait_for_compaction();
    EXPECT_EQ(engine.sequence(), 90u);
    EXPECT_EQ(engine.mutable_engine().sequence(), 90u);
    final_seq = engine.sequence();
    final_text = to_text(engine.materialize());
  }
  // The WAL order IS the order: whatever interleaving happened,
  // recovery reproduces the pre-shutdown state byte for byte.
  const auto recovered = DurableEngine::recover(dir);
  EXPECT_EQ(recovered->sequence(), final_seq);
  EXPECT_EQ(to_text(recovered->materialize()), final_text);
}

}  // namespace
}  // namespace tvg
