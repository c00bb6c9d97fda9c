// Unit suite for the durability primitives: CRC-32C vectors, WAL
// append/replay round trips, sync policies, torn-tail semantics, the
// failpoint registry's trigger schedules, and the checked file helpers'
// typed I/O errors. The crash-recovery *system* tests (checkpoint +
// recover torture) live in tests/test_recovery.cpp.
#include "tvg/wal.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tvg/failpoint.hpp"
#include "tvg/io.hpp"
#include "tvg/serialization.hpp"
#include "scoped_dir.hpp"

namespace fs = std::filesystem;

namespace tvg {
namespace {

ScopedDir fresh_dir(const std::string& tag) {
  return ScopedDir("wal", tag, /*create=*/true);
}

std::vector<EdgeMutation> sample_mutations() {
  IntervalSet pattern;
  pattern.insert_point(2);
  pattern.insert_point(5);
  std::vector<EdgeMutation> muts;
  muts.push_back(EdgeMutation::add_edge(0, 1, 'a', Presence::always(),
                                        Latency::constant(3), "uplink"));
  muts.push_back(EdgeMutation::add_edge(
      1, 2, 'b', Presence::periodic(8, std::move(pattern)),
      Latency::affine(2, 1), ""));
  muts.push_back(
      EdgeMutation::patch_presence(0, Presence::eventually_always(10)));
  muts.push_back(EdgeMutation::override_latency(1, Latency::constant(7)));
  muts.push_back(EdgeMutation::remove_edge(0));
  return muts;
}

std::string read_raw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return data;
}

void write_raw(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

// ---------------------------------------------------------------------------
// CRC-32C
// ---------------------------------------------------------------------------

TEST(Crc32c, KnownVectors) {
  // The canonical CRC-32C check value (RFC 3720 appendix / every
  // Castagnoli implementation): crc32c("123456789") == 0xE3069283.
  const std::string check = "123456789";
  EXPECT_EQ(crc32c(check.data(), check.size()), 0xE3069283u);
  // 32 zero bytes — another published vector.
  const std::string zeros(32, '\0');
  EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, SeedChainsPartialComputations) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = crc32c(data.data(), data.size());
  for (const std::size_t split : {std::size_t{1}, std::size_t{7},
                                  data.size() - 1}) {
    const std::uint32_t first = crc32c(data.data(), split);
    const std::uint32_t chained =
        crc32c(data.data() + split, data.size() - split, first);
    EXPECT_EQ(chained, whole) << "split at " << split;
  }
}

TEST(Crc32c, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // The textbook bit-at-a-time CRC-32C: the table-driven version must
  // agree with it on every length and start alignment, tails included.
  auto reference = [](const unsigned char* p, std::size_t n) {
    std::uint32_t crc = ~0u;
    for (std::size_t i = 0; i < n; ++i) {
      crc ^= p[i];
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
      }
    }
    return ~crc;
  };
  std::vector<unsigned char> bytes(80);
  std::uint32_t state = 12345;
  for (unsigned char& b : bytes) {
    state = state * 1103515245u + 12345u;
    b = static_cast<unsigned char>(state >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; offset + n <= bytes.size(); ++n) {
      ASSERT_EQ(crc32c(bytes.data() + offset, n),
                reference(bytes.data() + offset, n))
          << "offset " << offset << " length " << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Append / replay round trip
// ---------------------------------------------------------------------------

TEST(Wal, AppendReplayRoundTrip) {
  const ScopedDir dir = fresh_dir("roundtrip");
  const std::string path = dir + "/wal-0.log";
  const auto muts = sample_mutations();
  {
    Wal wal(path, WalOptions{}, 0, 1);
    EdgeId next_add = 10;  // pretend the graph had 10 edges
    std::uint64_t expect_seq = 1;
    for (const EdgeMutation& m : muts) {
      const EdgeId assigned =
          m.kind == EdgeMutation::Kind::kAddEdge ? next_add++ : m.edge;
      EXPECT_EQ(wal.append(m, assigned), expect_seq++);
      EXPECT_TRUE(wal.maybe_sync());  // kAlways
    }
    const Wal::Stats s = wal.stats();
    EXPECT_EQ(s.appends, muts.size());
    EXPECT_EQ(s.syncs, muts.size());
    EXPECT_EQ(s.next_sequence, muts.size() + 1);
    EXPECT_EQ(s.synced_sequence, muts.size());
  }

  const Wal::ReplayResult replayed = Wal::replay(path);
  EXPECT_FALSE(replayed.torn);
  EXPECT_EQ(replayed.base_sequence, 0u);
  ASSERT_EQ(replayed.records.size(), muts.size());
  EdgeId next_add = 10;
  for (std::size_t i = 0; i < muts.size(); ++i) {
    const Wal::Record& rec = replayed.records[i];
    const EdgeMutation& orig = muts[i];
    EXPECT_EQ(rec.sequence, i + 1);
    EXPECT_EQ(rec.assigned_edge,
              orig.kind == EdgeMutation::Kind::kAddEdge ? next_add++
                                                        : orig.edge);
    EXPECT_EQ(rec.mutation.kind, orig.kind);
    EXPECT_EQ(rec.mutation.edge, orig.edge);
    EXPECT_EQ(rec.mutation.from, orig.from);
    EXPECT_EQ(rec.mutation.to, orig.to);
    EXPECT_EQ(rec.mutation.label, orig.label);
    EXPECT_EQ(rec.mutation.name, orig.name);
    // ρ/ζ round-trip through the shared spec-string vocabulary.
    EXPECT_EQ(presence_to_spec(rec.mutation.presence),
              presence_to_spec(orig.presence));
    EXPECT_EQ(latency_to_spec(rec.mutation.latency),
              latency_to_spec(orig.latency));
  }
}

/// Printable ASCII as-is, every other byte (and '\\') as "\xNN".
std::string escaped(std::string_view bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (const char ch : bytes) {
    const auto c = static_cast<unsigned char>(ch);
    if (c >= 0x20 && c < 0x7f && c != '\\') {
      out += ch;
    } else {
      out += "\\x";
      out += kHex[c >> 4];
      out += kHex[c & 0xf];
    }
  }
  return out;
}

// One record per mutation kind, payload bytes as the stream-based
// writer produced them: every log already on disk holds this encoding.
TEST(Wal, FrameBytesArePinned) {
  const ScopedDir dir = fresh_dir("pinned");
  const std::string path = dir + "/wal-0.log";
  const std::vector<EdgeMutation> muts = {
      EdgeMutation::add_edge(2, 0, 'z',
                             Presence::periodic(8, [] {
                               IntervalSet p = IntervalSet::from_points({2});
                               p.insert({4, 6});
                               return p;
                             }()),
                             Latency::affine(1, 5), "patch"),
      EdgeMutation::remove_edge(3),
      EdgeMutation::patch_presence(
          8, Presence::eventually_always(kTimeInfinity - 1)),
      EdgeMutation::override_latency(0, Latency::constant(9)),
  };
  const std::vector<EdgeId> assigned = {8, 3, 8, 0};
  {
    Wal wal(path, WalOptions{}, 0, 1);
    wal.append(muts, assigned);
  }
  const std::vector<std::string> expected = {
      R"(\x00z\x00\x00\xff\xff\xff\xff\x02\x00\x00\x00\x00\x00\x00\x00)"
      R"(\x05\x00\x00\x00patch\x14\x00\x00\x00periodic:8:{2,[4,6)})"
      R"(\x0a\x00\x00\x00affine:1,5)",
      R"(\x01?\x00\x00\x03\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff)"
      R"(\x00\x00\x00\x00\x05\x00\x00\x00never\x07\x00\x00\x00const:1)",
      R"(\x02?\x00\x00\x08\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff)"
      R"(\x00\x00\x00\x00!\x00\x00\x00semi:9223372036854775806:{}:1:{0})"
      R"(\x07\x00\x00\x00const:1)",
      R"(\x03?\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff)"
      R"(\x00\x00\x00\x00\x06\x00\x00\x00always\x07\x00\x00\x00const:9)",
  };
  const std::string data = read_raw(path);
  std::size_t pos = Wal::kHeaderBytes;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_LE(pos + 20, data.size()) << "record " << i;
    std::uint32_t payload_len = 0;
    std::memcpy(&payload_len, data.data() + pos, 4);
    ASSERT_LE(pos + 20 + payload_len, data.size()) << "record " << i;
    EXPECT_EQ(escaped(std::string_view(data).substr(pos + 20, payload_len)),
              expected[i])
        << "record " << i;
    pos += 20 + payload_len;
  }
  EXPECT_EQ(pos, data.size());
  // The CRCs the writer stamped still verify.
  EXPECT_EQ(Wal::replay(path).records.size(), muts.size());
}

TEST(Wal, ReopenContinuesSequence) {
  const ScopedDir dir = fresh_dir("reopen");
  const std::string path = dir + "/wal-0.log";
  const auto muts = sample_mutations();
  {
    Wal wal(path, WalOptions{}, 0, 1);
    wal.append(muts[0], 10);
    wal.sync();
  }
  {
    // The contract: replay first, then reopen with the next sequence.
    const auto replayed = Wal::replay(path);
    ASSERT_EQ(replayed.records.size(), 1u);
    Wal wal(path, WalOptions{}, 0, replayed.records.back().sequence + 1);
    EXPECT_EQ(wal.append(muts[2], 0), 2u);
    wal.sync();
  }
  const auto replayed = Wal::replay(path);
  ASSERT_EQ(replayed.records.size(), 2u);
  EXPECT_EQ(replayed.records[0].sequence, 1u);
  EXPECT_EQ(replayed.records[1].sequence, 2u);
  EXPECT_EQ(replayed.records[1].mutation.kind,
            EdgeMutation::Kind::kPatchPresence);
}

TEST(Wal, BatchAppendIsOneRunOfRecords) {
  const ScopedDir dir = fresh_dir("batch");
  const std::string path = dir + "/wal-0.log";
  const auto muts = sample_mutations();
  const std::vector<EdgeId> ids = {20, 21, 0, 1, 0};
  {
    Wal wal(path, WalOptions{}, 0, 1);
    EXPECT_EQ(wal.append(muts[0], 20), 1u);
    EXPECT_EQ(wal.append(std::span(muts).subspan(1),
                         std::span(ids).subspan(1)),
              5u);
    EXPECT_EQ(wal.stats().appends, 5u);
    // A runtime-only schedule anywhere in a batch writes nothing.
    const std::vector<EdgeMutation> bad = {
        muts[2], EdgeMutation::override_latency(
                     0, Latency::function([](Time t) { return t; }, "f"))};
    EXPECT_THROW(wal.append(bad, std::span(ids).first(2)),
                 std::invalid_argument);
    EXPECT_EQ(wal.stats().next_sequence, 6u);
    wal.sync();
  }
  const Wal::ReplayResult replayed = Wal::replay(path);
  EXPECT_FALSE(replayed.torn);
  ASSERT_EQ(replayed.records.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(replayed.records[i].sequence, i + 1);
    EXPECT_EQ(replayed.records[i].assigned_edge, ids[i]);
  }
}

TEST(Wal, RotateContinuesInANewFileWithCountersCarried) {
  const ScopedDir dir = fresh_dir("rotate");
  const auto muts = sample_mutations();
  Wal wal(dir + "/wal-0.log", WalOptions{}, 0, 1);
  wal.append(muts[0], 10);
  wal.append(muts[1], 11);
  const Wal::Stats before = wal.stats();
  wal.rotate(dir + "/wal-2.log", 2);
  EXPECT_EQ(wal.path(), dir + "/wal-2.log");
  EXPECT_EQ(wal.stats().synced_sequence, 2u);  // covered by the caller
  EXPECT_EQ(wal.append(muts[2], 0), 3u);
  wal.sync();
  const Wal::Stats after = wal.stats();
  EXPECT_EQ(after.appends, 3u);
  EXPECT_EQ(after.syncs, before.syncs + 1);
  EXPECT_GT(after.bytes_written, before.bytes_written + Wal::kHeaderBytes);

  const Wal::ReplayResult old_log = Wal::replay(dir + "/wal-0.log");
  EXPECT_EQ(old_log.records.size(), 2u);
  const Wal::ReplayResult new_log = Wal::replay(dir + "/wal-2.log");
  EXPECT_EQ(new_log.base_sequence, 2u);
  ASSERT_EQ(new_log.records.size(), 1u);
  EXPECT_EQ(new_log.records[0].sequence, 3u);
}

TEST(Wal, RuntimeOnlyScheduleRejectedBeforeWrite) {
  const ScopedDir dir = fresh_dir("runtime_only");
  const std::string path = dir + "/wal-0.log";
  Wal wal(path, WalOptions{}, 0, 1);
  const auto size_before = fs::file_size(path);
  EXPECT_THROW(
      wal.append(EdgeMutation::patch_presence(
                     0, Presence::predicate([](Time) { return true; })),
                 0),
      std::invalid_argument);
  // Nothing reached the file and the sequence did not advance.
  EXPECT_EQ(fs::file_size(path), size_before);
  EXPECT_EQ(wal.stats().next_sequence, 1u);
  EXPECT_EQ(wal.append(sample_mutations()[0], 5), 1u);
}

// ---------------------------------------------------------------------------
// Sync policies
// ---------------------------------------------------------------------------

TEST(Wal, SyncPolicyEveryN) {
  const ScopedDir dir = fresh_dir("every_n");
  WalOptions options;
  options.sync = SyncPolicy::kEveryN;
  options.every_n = 3;
  Wal wal(dir + "/wal-0.log", options, 0, 1);
  const auto muts = sample_mutations();
  std::uint64_t syncs = 0;
  for (int i = 0; i < 7; ++i) {
    wal.append(muts[i % muts.size()], 100);
    if (wal.maybe_sync()) ++syncs;
  }
  EXPECT_EQ(syncs, 2u);  // after appends 3 and 6
  const Wal::Stats s = wal.stats();
  EXPECT_EQ(s.syncs, 2u);
  EXPECT_EQ(s.synced_sequence, 6u);  // append 7 is the durability lag
  EXPECT_EQ(s.next_sequence, 8u);
  wal.sync();
  EXPECT_EQ(wal.stats().synced_sequence, 7u);
  // Forcing again with nothing unsynced is a no-op, not another fsync.
  wal.sync();
  EXPECT_EQ(wal.stats().syncs, 3u);
}

TEST(Wal, SyncPolicyInterval) {
  const ScopedDir dir = fresh_dir("interval");
  WalOptions options;
  options.sync = SyncPolicy::kInterval;
  options.interval = std::chrono::milliseconds(0);  // always elapsed
  Wal wal(dir + "/wal-0.log", options, 0, 1);
  wal.append(sample_mutations()[0], 0);
  EXPECT_TRUE(wal.maybe_sync());
  EXPECT_EQ(wal.stats().synced_sequence, 1u);
  // Nothing new appended: nothing to sync, whatever the clock says.
  EXPECT_FALSE(wal.maybe_sync());

  WalOptions lazy;
  lazy.sync = SyncPolicy::kInterval;
  lazy.interval = std::chrono::hours(1);
  Wal wal2(dir + "/wal-1.log", lazy, 0, 1);
  wal2.append(sample_mutations()[0], 0);
  EXPECT_FALSE(wal2.maybe_sync());  // interval not elapsed
  EXPECT_EQ(wal2.stats().synced_sequence, 0u);
}

// ---------------------------------------------------------------------------
// Torn tails and corruption
// ---------------------------------------------------------------------------

TEST(Wal, TornTailDetectedAndTruncated) {
  const ScopedDir dir = fresh_dir("torn");
  const std::string path = dir + "/wal-0.log";
  const auto muts = sample_mutations();
  {
    Wal wal(path, WalOptions{}, 0, 1);
    for (int i = 0; i < 3; ++i) wal.append(muts[i], 10 + EdgeId(i));
    wal.sync();
  }
  const std::string intact = read_raw(path);

  // Chop bytes off the last record: short frame = torn tail.
  write_raw(path, intact.substr(0, intact.size() - 5));
  Wal::ReplayResult replayed = Wal::replay(path);
  EXPECT_TRUE(replayed.torn);
  EXPECT_EQ(replayed.records.size(), 2u);
  EXPECT_LT(replayed.valid_bytes, intact.size());

  Wal::truncate_to(path, replayed.valid_bytes);
  replayed = Wal::replay(path);
  EXPECT_FALSE(replayed.torn);
  EXPECT_EQ(replayed.records.size(), 2u);

  // Garbage appended after valid records is equally a torn tail.
  write_raw(path, intact + "garbage bytes that are not a frame");
  replayed = Wal::replay(path);
  EXPECT_TRUE(replayed.torn);
  EXPECT_EQ(replayed.records.size(), 3u);
  EXPECT_EQ(replayed.valid_bytes, intact.size());
}

TEST(Wal, BitFlipStopsReplayAtFlippedRecord) {
  const ScopedDir dir = fresh_dir("bitflip");
  const std::string path = dir + "/wal-0.log";
  const auto muts = sample_mutations();
  {
    Wal wal(path, WalOptions{}, 0, 1);
    for (int i = 0; i < 3; ++i) wal.append(muts[i], 10 + EdgeId(i));
    wal.sync();
  }
  std::string data = read_raw(path);
  // Flip one bit well inside the SECOND record's frame (past the
  // 16-byte header and the first record).
  const std::size_t target = 16 + (data.size() - 16) / 2;
  data[target] = static_cast<char>(data[target] ^ 0x10);
  write_raw(path, data);
  const Wal::ReplayResult replayed = Wal::replay(path);
  EXPECT_TRUE(replayed.torn);
  EXPECT_LT(replayed.records.size(), 3u);
}

TEST(Wal, ShortHeaderIsATornTailOnlyForItsBase) {
  // A crash between creating a log and writing its header leaves an
  // empty file or a header prefix: torn at offset 0 when the caller
  // names the base it expects, still corrupt otherwise.
  const ScopedDir dir = fresh_dir("short_header");
  const std::string path = dir + "/wal-5.log";
  { Wal wal(path, {}, 5, 6); }
  const std::string header = read_raw(path);
  ASSERT_EQ(header.size(), Wal::kHeaderBytes);
  for (const std::size_t keep : {std::size_t{0}, std::size_t{7},
                                 std::size_t{15}}) {
    write_raw(path, header.substr(0, keep));
    const Wal::ReplayResult replayed = Wal::replay(path, 5);
    EXPECT_TRUE(replayed.torn) << keep;
    EXPECT_EQ(replayed.valid_bytes, 0u) << keep;
    EXPECT_EQ(replayed.base_sequence, 5u) << keep;
    EXPECT_TRUE(replayed.records.empty()) << keep;
    EXPECT_THROW(Wal::replay(path), RecoveryError) << keep;
  }
  // A prefix of another base's header, or of no header, is corruption.
  write_raw(path, header.substr(0, 9));
  EXPECT_THROW(Wal::replay(path, 6), RecoveryError);
  write_raw(path, "TVGX");
  EXPECT_THROW(Wal::replay(path, 5), RecoveryError);
}

TEST(Wal, CorruptHeaderThrowsRecoveryError) {
  const ScopedDir dir = fresh_dir("header");
  const std::string path = dir + "/bad.log";
  write_raw(path, "this is not a TVGWAL01 file at all");
  EXPECT_THROW(Wal::replay(path), RecoveryError);
  write_raw(path, "short");
  EXPECT_THROW(Wal::replay(path), RecoveryError);
  EXPECT_THROW(Wal::replay(dir + "/does_not_exist.log"), IoError);
}

// ---------------------------------------------------------------------------
// Failpoint sites in the WAL
// ---------------------------------------------------------------------------

TEST(WalFailpoints, PartialAppendLeavesTornTail) {
  const FailPointGuard guard;
  const ScopedDir dir = fresh_dir("fp_partial");
  const std::string path = dir + "/wal-0.log";
  const auto muts = sample_mutations();
  {
    Wal wal(path, WalOptions{}, 0, 1);
    wal.append(muts[0], 10);
    wal.sync();
    FailPointRegistry::instance().arm_on_hit("wal.append.partial", 1,
                                             FailPointAction::crash(9));
    EXPECT_THROW(wal.append(muts[1], 11), CrashInjected);
    // Sequence not advanced: the record never fully landed.
    EXPECT_EQ(wal.stats().next_sequence, 2u);
  }
  FailPointRegistry::instance().disarm_all();

  Wal::ReplayResult replayed = Wal::replay(path);
  EXPECT_TRUE(replayed.torn);
  ASSERT_EQ(replayed.records.size(), 1u);
  Wal::truncate_to(path, replayed.valid_bytes);

  // Reopen at the right sequence and keep appending — the repaired log
  // replays clean.
  {
    Wal wal(path, WalOptions{}, 0, 2);
    EXPECT_EQ(wal.append(muts[1], 11), 2u);
    wal.sync();
  }
  replayed = Wal::replay(path);
  EXPECT_FALSE(replayed.torn);
  EXPECT_EQ(replayed.records.size(), 2u);
}

TEST(WalFailpoints, FsyncFailureSurfacesAndDoesNotAdvanceSyncedSeq) {
  const FailPointGuard guard;
  const ScopedDir dir = fresh_dir("fp_fsync");
  Wal wal(dir + "/wal-0.log", WalOptions{}, 0, 1);
  wal.append(sample_mutations()[0], 10);
  FailPointRegistry::instance().arm_on_hit("wal.fsync", 1,
                                           FailPointAction::error());
  EXPECT_THROW(wal.sync(), FailPointError);
  EXPECT_EQ(wal.stats().synced_sequence, 0u);  // failure did not advance
  FailPointRegistry::instance().disarm_all();
  wal.sync();
  EXPECT_EQ(wal.stats().synced_sequence, 1u);
}

TEST(WalFailpoints, FailedWritePoisonsTheHandle) {
  const FailPointGuard guard;
  const ScopedDir dir = fresh_dir("fp_poison");
  const std::string path = dir + "/wal-0.log";
  const auto muts = sample_mutations();
  Wal wal(path, WalOptions{}, 0, 1);
  wal.append(muts[0], 10);
  // Before the first byte: the handle stays usable.
  FailPointRegistry::instance().arm_on_hit("wal.append.before", 1,
                                           FailPointAction::error());
  EXPECT_THROW(wal.append(muts[1], 11), FailPointError);
  EXPECT_NO_THROW(wal.check_writable());
  EXPECT_EQ(wal.append(muts[1], 11), 2u);
  // A short write: the tail is torn, so nothing may follow it.
  FailPointRegistry::instance().arm_on_hit(
      "wal.append.partial", 1,
      FailPointAction{FailPointAction::Kind::kError, 5});
  EXPECT_THROW(wal.append(muts[2], 12), FailPointError);
  EXPECT_THROW(wal.check_writable(), IoError);
  EXPECT_THROW(wal.append(muts[3], 13), IoError);
  EXPECT_EQ(wal.stats().next_sequence, 3u);
  wal.sync();  // the acknowledged prefix can still be made durable
  EXPECT_EQ(wal.stats().synced_sequence, 2u);

  const Wal::ReplayResult replayed = Wal::replay(path);
  EXPECT_TRUE(replayed.torn);
  EXPECT_EQ(replayed.records.size(), 2u);
}

// ---------------------------------------------------------------------------
// Failpoint registry semantics
// ---------------------------------------------------------------------------

TEST(FailPointRegistry, OnHitFiresOnExactHit) {
  const FailPointGuard guard;
  auto& reg = FailPointRegistry::instance();
  reg.arm_on_hit("test.site", 3, FailPointAction::error());
  EXPECT_NO_THROW(reg.on_hit("test.site"));
  EXPECT_NO_THROW(reg.on_hit("test.site"));
  EXPECT_THROW(reg.on_hit("test.site"), FailPointError);
  EXPECT_NO_THROW(reg.on_hit("test.site"));  // only the 3rd hit fires
  EXPECT_EQ(reg.hits("test.site"), 4u);
}

TEST(FailPointRegistry, EveryNFiresPeriodically) {
  const FailPointGuard guard;
  auto& reg = FailPointRegistry::instance();
  reg.arm_every("test.every", 2, FailPointAction::crash(7));
  int fired = 0;
  for (int i = 0; i < 6; ++i) {
    try {
      reg.on_hit("test.every");
    } catch (const CrashInjected&) {
      ++fired;
    }
  }
  EXPECT_EQ(fired, 3);
}

TEST(FailPointRegistry, SeededScheduleIsReplayable) {
  const FailPointGuard guard;
  auto& reg = FailPointRegistry::instance();
  const auto run_schedule = [&](std::uint64_t seed) {
    reg.disarm_all();
    reg.arm_seeded("test.seeded", seed, 300000, FailPointAction::error());
    std::vector<int> fired_hits;
    for (int i = 0; i < 64; ++i) {
      try {
        reg.on_hit("test.seeded");
      } catch (const FailPointError&) {
        fired_hits.push_back(i);
      }
    }
    return fired_hits;
  };
  const auto a = run_schedule(42);
  const auto b = run_schedule(42);
  const auto c = run_schedule(43);
  EXPECT_EQ(a, b);          // same seed, same schedule, hit for hit
  EXPECT_NE(a, c);          // different seed, different schedule
  EXPECT_FALSE(a.empty());  // 30% over 64 hits fires at least once
  EXPECT_LT(a.size(), 64u);
}

TEST(FailPointRegistry, ConsumeReturnsArgForPartialEffects) {
  const FailPointGuard guard;
  auto& reg = FailPointRegistry::instance();
  reg.arm_on_hit("test.consume", 1, FailPointAction::crash(1234));
  const FailPointAction a = reg.consume("test.consume");
  EXPECT_EQ(a.kind, FailPointAction::Kind::kCrash);
  EXPECT_EQ(a.arg, 1234u);
  EXPECT_EQ(reg.consume("test.consume").kind, FailPointAction::Kind::kNone);
}

TEST(FailPointRegistry, DisarmAllClearsFastPath) {
  auto& reg = FailPointRegistry::instance();
  EXPECT_FALSE(FailPointRegistry::any_armed());
  reg.arm_on_hit("test.a", 1, FailPointAction::error());
  reg.arm_on_hit("test.b", 1, FailPointAction::error());
  EXPECT_TRUE(FailPointRegistry::any_armed());
  EXPECT_EQ(reg.armed_sites().size(), 2u);
  reg.disarm("test.a");
  EXPECT_TRUE(FailPointRegistry::any_armed());
  reg.disarm_all();
  EXPECT_FALSE(FailPointRegistry::any_armed());
  EXPECT_TRUE(reg.armed_sites().empty());
  // An unarmed site never throws.
  EXPECT_NO_THROW(reg.on_hit("test.a"));
}

// ---------------------------------------------------------------------------
// Checked file helpers (io.hpp satellite)
// ---------------------------------------------------------------------------

TEST(CheckedFileIo, WriteToImpossiblePathThrowsIoError) {
  const ScopedDir dir = fresh_dir("io_err");
  // A path whose parent is a regular FILE fails with ENOTDIR for any
  // user (a read-only directory would not stop root, and tests run as
  // root in some CI containers).
  write_text_file(dir + "/blocker", "i am a file");
  try {
    write_text_file(dir + "/blocker/child.txt", "cannot exist");
    FAIL() << "expected tvg::IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.errno_value(), ENOTDIR);
    EXPECT_NE(std::string(e.what()).find("blocker/child.txt"),
              std::string::npos);
  }
}

TEST(CheckedFileIo, ReadMissingFileThrowsIoError) {
  const ScopedDir dir = fresh_dir("io_missing");
  try {
    (void)read_text_file(dir + "/no_such_file.txt");
    FAIL() << "expected tvg::IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.errno_value(), ENOENT);
  }
}

TEST(CheckedFileIo, RoundTrip) {
  const ScopedDir dir = fresh_dir("io_roundtrip");
  const std::string content = "tvg 1\nnode v0\n# with a comment\n";
  write_text_file(dir + "/file.txt", content);
  EXPECT_EQ(read_text_file(dir + "/file.txt"), content);
  // Overwrite replaces, never appends.
  write_text_file(dir + "/file.txt", "short\n");
  EXPECT_EQ(read_text_file(dir + "/file.txt"), "short\n");
}

}  // namespace
}  // namespace tvg
