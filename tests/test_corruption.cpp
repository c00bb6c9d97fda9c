// Seeded corruption suite: flip bits in durability files
// (durable_engine.hpp on-disk layout) and prove recovery NEVER serves
// wrong data. Every corrupted byte must land in one of exactly three
// outcomes:
//
//   1. typed rejection  — tvg::RecoveryError (untrustworthy state), or
//   2. repair           — recovery succeeds at a PREFIX of the history
//                         and is bit-identical to the no-crash oracle
//                         at that prefix (e.g. a flipped WAL tail is a
//                         torn tail), or
//   3. tolerated        — the flip hit slack bytes (checkpoint
//                         comments/whitespace the CRC still covers —
//                         impossible — or a pruned file) and recovery
//                         is exact.
//
// Never: a different exception type, a crash, or divergent query
// results. This is the satellite-3 regression suite; CI runs it under
// the ASan/UBSan lane so an out-of-bounds decode of hostile bytes
// faults loudly instead of "working".
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "tvg/durable_engine.hpp"
#include "tvg/failpoint.hpp"
#include "tvg/generators.hpp"
#include "tvg/io.hpp"
#include "tvg/serialization.hpp"
#include "scoped_dir.hpp"

namespace fs = std::filesystem;

namespace tvg {
namespace {

ScopedDir fresh_dir(const std::string& tag) {
  return ScopedDir("corruption", tag);
}

TimeVaryingGraph base_graph() {
  RandomPeriodicParams params;
  params.nodes = 8;
  params.edges = 18;
  params.period = 6;
  params.density = 0.4;
  params.max_latency = 2;
  params.seed = 77;
  return make_random_periodic(params);
}

std::vector<EdgeMutation> workload() {
  std::vector<EdgeMutation> stream;
  std::mt19937_64 rng(4242);
  std::size_t edges = base_graph().edge_count();
  for (int i = 0; i < 20; ++i) {
    switch (rng() % 4) {
      case 0: {
        IntervalSet pattern;
        pattern.insert_point(static_cast<Time>(rng() % 6));
        stream.push_back(EdgeMutation::add_edge(
            static_cast<NodeId>(rng() % 8), static_cast<NodeId>(rng() % 8),
            'a', Presence::periodic(6, std::move(pattern)),
            Latency::constant(1)));
        ++edges;
        break;
      }
      case 1: {
        IntervalSet pattern;
        pattern.insert_point(static_cast<Time>(rng() % 6));
        pattern.insert_point(static_cast<Time>(rng() % 6));
        stream.push_back(EdgeMutation::patch_presence(
            static_cast<EdgeId>(rng() % edges),
            Presence::periodic(6, std::move(pattern))));
        break;
      }
      case 2:
        stream.push_back(EdgeMutation::override_latency(
            static_cast<EdgeId>(rng() % edges),
            Latency::constant(1 + Time(rng() % 3))));
        break;
      default:
        stream.push_back(
            EdgeMutation::remove_edge(static_cast<EdgeId>(rng() % edges)));
        break;
    }
  }
  return stream;
}

/// Oracle prefix: base + first `upto` workload mutations.
TimeVaryingGraph oracle_at(std::uint64_t upto) {
  QueryEngine oracle(base_graph(), 1);
  const auto stream = workload();
  for (std::uint64_t i = 0; i < upto; ++i) oracle.apply(stream[i]);
  return oracle.materialize();
}

/// A pristine engine directory: 12 mutations, checkpoint (sequence 12,
/// rotation — pruning OFF so both generations stay corruptible), 8
/// more mutations, clean shutdown. Snapshot every file to memory.
struct GoldenDir {
  std::map<std::string, std::string> files;  // relative name -> bytes
  DurableOptions options;
};

const GoldenDir& golden() {
  static const GoldenDir g = [] {
    GoldenDir out;
    out.options.prune_old_files = false;
    const ScopedDir dir = fresh_dir("golden");
    {
      DurableEngine engine(base_graph(), dir, out.options);
      const auto stream = workload();
      for (int i = 0; i < 12; ++i) engine.apply(stream[i]);
      engine.checkpoint();
      for (int i = 12; i < 20; ++i) engine.apply(stream[i]);
    }
    for (const auto& entry : fs::directory_iterator(dir)) {
      out.files[entry.path().filename().string()] =
          read_text_file(entry.path().string());
    }
    return out;
  }();
  return g;
}

void restore(const std::string& dir, const GoldenDir& g) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const auto& [name, bytes] : g.files) {
    write_text_file((fs::path(dir) / name).string(), bytes);
  }
}

TEST(Corruption, GoldenDirRecoversExactlyWithoutCorruption) {
  const ScopedDir dir = fresh_dir("baseline");
  restore(dir, golden());
  const auto recovered = DurableEngine::recover(dir, golden().options);
  EXPECT_EQ(recovered->sequence(), 20u);
  EXPECT_EQ(to_text(recovered->materialize()), to_text(oracle_at(20)));
}

TEST(Corruption, SeededBitFlipsNeverYieldWrongData) {
  const GoldenDir& g = golden();
  // Enumerate the corruptible files once so schedules are stable.
  std::vector<std::string> names;
  for (const auto& [name, bytes] : g.files) {
    if (!bytes.empty()) names.push_back(name);
  }
  ASSERT_GE(names.size(), 3u);  // checkpoint-0, checkpoint-12, wal-0, wal-12

  const char* env = std::getenv("TVG_RECOVERY_SEED");
  const std::uint64_t base_seed = env ? std::strtoull(env, nullptr, 10) : 0;
  std::mt19937_64 rng(base_seed ^ 0xC0FFEEULL);

  const ScopedDir dir = fresh_dir("flip");
  const std::string oracle_full = to_text(oracle_at(20));
  int rejected = 0, repaired = 0, tolerated = 0;
  for (int trial = 0; trial < 48; ++trial) {
    const std::string& victim = names[rng() % names.size()];
    const std::string& orig = g.files.at(victim);
    const std::size_t byte = rng() % orig.size();
    const int bit = static_cast<int>(rng() % 8);
    SCOPED_TRACE("trial=" + std::to_string(trial) + " file=" + victim +
                 " byte=" + std::to_string(byte) +
                 " bit=" + std::to_string(bit));

    restore(dir, g);
    std::string bytes = orig;
    bytes[byte] = static_cast<char>(bytes[byte] ^ (1u << bit));
    write_text_file((fs::path(dir) / victim).string(), bytes);

    try {
      const auto recovered = DurableEngine::recover(dir, g.options);
      const std::uint64_t r = recovered->sequence();
      ASSERT_LE(r, 20u);
      const std::string got = to_text(recovered->materialize());
      ASSERT_EQ(got, to_text(oracle_at(r)));
      if (r == 20u) {
        ++tolerated;
        EXPECT_EQ(got, oracle_full);
      } else {
        ++repaired;  // prefix-consistent: a shortened but correct history
      }
    } catch (const RecoveryError&) {
      ++rejected;  // typed refusal is always acceptable
    }
    // Any OTHER exception type (or a sanitizer fault) fails the test.
  }
  // The split depends on which bytes get hit, but all three buckets
  // must be reachable across 48 flips of real frames and checkpoints.
  EXPECT_GT(rejected + repaired + tolerated, 0);
  EXPECT_EQ(rejected + repaired + tolerated, 48);
}

TEST(Corruption, EveryByteOfAWalRecordIsRejectedOrRepaired) {
  // Exhaustive, not sampled: flip the low bit of EVERY byte of the
  // post-checkpoint WAL (header + all 8 records) one at a time.
  const GoldenDir& g = golden();
  std::string wal_name;
  for (const auto& [name, bytes] : g.files) {
    if (name.starts_with("wal-") && name != "wal-0.log") wal_name = name;
  }
  ASSERT_FALSE(wal_name.empty());
  const std::string& orig = g.files.at(wal_name);
  const ScopedDir dir = fresh_dir("exhaustive");
  for (std::size_t byte = 0; byte < orig.size(); ++byte) {
    SCOPED_TRACE(wal_name + " byte=" + std::to_string(byte));
    restore(dir, g);
    std::string bytes = orig;
    bytes[byte] = static_cast<char>(bytes[byte] ^ 1u);
    write_text_file((fs::path(dir) / wal_name).string(), bytes);
    try {
      const auto recovered = DurableEngine::recover(dir, g.options);
      const std::uint64_t r = recovered->sequence();
      // 12 mutations are behind the checkpoint; flips can only shorten
      // the WAL suffix, never reach below the checkpoint.
      ASSERT_GE(r, 12u);
      ASSERT_LE(r, 20u);
      ASSERT_EQ(to_text(recovered->materialize()), to_text(oracle_at(r)));
    } catch (const RecoveryError&) {
      // typed refusal
    }
  }
}

TEST(Corruption, TruncationsAreTreatedAsTornTails) {
  // Chop the newest WAL at every prefix length: recovery must succeed
  // (torn tail) with a prefix-consistent result — truncation is the ONE
  // corruption the format promises to repair, not reject.
  const GoldenDir& g = golden();
  std::string wal_name;
  for (const auto& [name, bytes] : g.files) {
    if (name.starts_with("wal-") && name != "wal-0.log") wal_name = name;
  }
  const std::string& orig = g.files.at(wal_name);
  const ScopedDir dir = fresh_dir("truncate");
  // Step through cut points; include 0 (missing header) and full size.
  for (std::size_t cut = 0; cut <= orig.size(); cut += 7) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    restore(dir, g);
    write_text_file((fs::path(dir) / wal_name).string(), orig.substr(0, cut));
    try {
      const auto recovered = DurableEngine::recover(dir, g.options);
      const std::uint64_t r = recovered->sequence();
      ASSERT_GE(r, 12u);
      ASSERT_LE(r, 20u);
      ASSERT_EQ(to_text(recovered->materialize()), to_text(oracle_at(r)));
    } catch (const RecoveryError&) {
      // A cut INSIDE the 16-byte header is not a torn record — the file
      // does not identify itself — and typed rejection is correct.
      EXPECT_LT(cut, Wal::kHeaderBytes);
    }
  }
}

TEST(Corruption, CheckpointFooterTamperingIsDetected) {
  // Rewrite the newest checkpoint's footer with a self-consistent but
  // WRONG sequence: the CRC matches the body, the bytes match, but the
  // claimed sequence disagrees with the filename — recovery must not
  // trust it. (Guards against confused-rename attacks/bugs where a
  // checkpoint file is copied over another's name.)
  const GoldenDir& g = golden();
  const ScopedDir dir = fresh_dir("footer");
  restore(dir, g);
  const std::string newest = DurableEngine::checkpoint_path(dir, 12);
  std::string text = read_text_file(newest);
  const auto pos = text.rfind("seq=12");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 6, "seq=13");
  write_text_file(newest, text);
  try {
    const auto recovered = DurableEngine::recover(dir, g.options);
    // Accepting is only OK if it fell back to checkpoint-0 and chained
    // both WALs to the full, correct history.
    EXPECT_EQ(recovered->stats().recovery.checkpoints_rejected, 1u);
    EXPECT_EQ(to_text(recovered->materialize()), to_text(oracle_at(20)));
  } catch (const RecoveryError&) {
    // Typed refusal also acceptable.
  }
}

}  // namespace
}  // namespace tvg
