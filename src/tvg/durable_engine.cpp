#include "tvg/durable_engine.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "tvg/failpoint.hpp"
#include "tvg/io.hpp"
#include "tvg/serialization.hpp"

namespace fs = std::filesystem;

namespace tvg {

namespace {

constexpr const char* kCheckpointPrefix = "checkpoint-";
constexpr const char* kCheckpointSuffix = ".ckpt";
constexpr const char* kWalPrefix = "wal-";
constexpr const char* kWalSuffix = ".log";

void write_all(int fd, const char* data, std::size_t size,
               const std::string& path) {
  while (size > 0) {
    const ssize_t written = ::write(fd, data, size);
    if (written < 0) {
      if (errno == EINTR) continue;
      throw IoError("checkpoint: write", path, errno);
    }
    data += written;
    size -= static_cast<std::size_t>(written);
  }
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw IoError("checkpoint: open dir", dir, errno);
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    throw IoError("checkpoint: fsync dir", dir, saved);
  }
  ::close(fd);
}

/// "checkpoint-<digits>.ckpt" / "wal-<digits>.log" → the sequence.
std::optional<std::uint64_t> parse_sequenced_name(const std::string& name,
                                                  const std::string& prefix,
                                                  const std::string& suffix) {
  if (name.size() <= prefix.size() + suffix.size() ||
      name.compare(0, prefix.size(), prefix) != 0 ||
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  std::uint64_t seq = 0;
  for (std::size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    seq = seq * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return seq;
}

std::string footer_line(std::uint64_t seq, const std::string& body) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "# tvg-checkpoint seq=%llu bytes=%llu crc32c=%08x\n",
                static_cast<unsigned long long>(seq),
                static_cast<unsigned long long>(body.size()),
                crc32c(body.data(), body.size()));
  return std::string(buf);
}

/// Verifies the footer that ends `text` (its byte count and CRC against
/// the body before it) and trims `text` to that body. False on ANY
/// mismatch (missing/garbled footer, trailing bytes after it, size or
/// checksum mismatch), with `text` untouched — the caller treats that
/// checkpoint as not written.
bool verify_checkpoint(std::string& text, std::uint64_t expected_seq) {
  const auto pos = text.rfind("\n# tvg-checkpoint ");
  if (pos == std::string::npos) return false;
  const std::size_t body_bytes = pos + 1;
  // The footer runs to the end of `text` (so its data() is
  // NUL-terminated for sscanf) and must be the final line,
  // newline-terminated: anything after it is appended corruption, not
  // slack to ignore.
  const std::string_view footer = std::string_view(text).substr(body_bytes);
  if (footer.back() != '\n' || footer.find('\n') != footer.size() - 1) {
    return false;
  }
  unsigned long long seq = 0;
  unsigned long long bytes = 0;
  unsigned int crc = 0;
  if (std::sscanf(footer.data(), "# tvg-checkpoint seq=%llu bytes=%llu crc32c=%x",
                  &seq, &bytes, &crc) != 3) {
    return false;
  }
  if (seq != expected_seq || bytes != body_bytes ||
      crc32c(text.data(), body_bytes) != crc) {
    return false;
  }
  text.resize(body_bytes);
  return true;
}

/// Temp-file + fsync + rename + directory fsync. The rename is the
/// commit point; failpoint sites bracket each step so the torture
/// suite can kill the "process" in every window.
void write_checkpoint_file(const std::string& dir, const std::string& path,
                           const std::string& body, std::uint64_t seq) {
  const std::string footer = footer_line(seq, body);
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw IoError("checkpoint: open", tmp, errno);
  try {
    // Two-halves write with the failpoint in between: a crash here
    // leaves a TRUNCATED temp file, the artifact recovery must sweep.
    const std::size_t half = body.size() / 2;
    write_all(fd, body.data(), half, tmp);
    TVG_FAILPOINT("checkpoint.write");
    write_all(fd, body.data() + half, body.size() - half, tmp);
    write_all(fd, footer.data(), footer.size(), tmp);
    TVG_FAILPOINT("checkpoint.fsync");
    if (::fsync(fd) != 0) throw IoError("checkpoint: fsync", tmp, errno);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  // THE window the whole dance exists for: temp file complete and
  // durable, final name still pointing at the old state.
  TVG_FAILPOINT("checkpoint.rename");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    throw IoError("checkpoint: rename", tmp, errno);
  }
  fsync_dir(dir);
}

}  // namespace

std::string DurableEngine::checkpoint_path(const std::string& dir,
                                           std::uint64_t sequence) {
  return dir + "/" + kCheckpointPrefix + std::to_string(sequence) +
         kCheckpointSuffix;
}

std::string DurableEngine::wal_path(const std::string& dir,
                                    std::uint64_t sequence) {
  return dir + "/" + kWalPrefix + std::to_string(sequence) + kWalSuffix;
}

// ---------------------------------------------------------------------------
// Fresh start
// ---------------------------------------------------------------------------

namespace {

/// Fresh-start preflight: creates `dir`, refuses one that already holds
/// durability state, then serializes checkpoint-0 of `base` — all
/// before a byte is written. Throws std::invalid_argument on
/// runtime-only schedules: a base graph that cannot be persisted is
/// rejected at construction, not at the first checkpoint.
std::string fresh_checkpoint_body(const TimeVaryingGraph& base,
                                  const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) throw IoError("durable: create dir", dir, ec.value());
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (parse_sequenced_name(name, kCheckpointPrefix, kCheckpointSuffix)) {
      throw std::invalid_argument(
          "DurableEngine: " + dir +
          " already holds durability state (found " + name +
          ") — use DurableEngine::recover to open it");
    }
  }
  return to_text(base);
}

}  // namespace

DurableEngine::DurableEngine(TimeVaryingGraph base, std::string dir,
                             DurableOptions options)
    : DurableEngine(fresh_checkpoint_body(base, dir), std::move(base),
                    std::move(dir), options) {}

DurableEngine::DurableEngine(const std::string& body, TimeVaryingGraph&& base,
                             std::string&& dir, DurableOptions options)
    : dir_(std::move(dir)),
      options_(options),
      engine_(std::move(base), options.threads) {
  write_checkpoint_file(dir_, checkpoint_path(dir_, 0), body, 0);
  engine_.attach_wal(std::make_unique<Wal>(wal_path(dir_, 0), options_.wal,
                                           /*base_sequence=*/0,
                                           /*next_sequence=*/1));
  checkpoints_written_ = 1;
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

struct DurableEngine::Recovered {
  TimeVaryingGraph graph;
  std::vector<Wal::Record> records;
  std::uint64_t checkpoint_seq{0};
  /// Base sequence of the FINAL link in the replayed WAL chain — the
  /// file the live append handle reopens.
  std::uint64_t wal_link{0};
  std::uint64_t next_sequence{1};
  RecoveryInfo info;
};

std::unique_ptr<DurableEngine> DurableEngine::recover(std::string dir,
                                                      DurableOptions options) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw RecoveryError("recover: " + dir + ": not a directory");
  }

  Recovered r;
  std::vector<std::uint64_t> checkpoint_seqs;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      // In-flight checkpoint the crash orphaned: complete or truncated,
      // it was never committed (the rename is the commit point), so it
      // is swept, never adopted.
      fs::remove(entry.path(), ec);
      if (!ec) ++r.info.temp_files_removed;
      continue;
    }
    if (const auto seq =
            parse_sequenced_name(name, kCheckpointPrefix, kCheckpointSuffix)) {
      checkpoint_seqs.push_back(*seq);
    }
  }
  if (checkpoint_seqs.empty()) {
    throw RecoveryError("recover: " + dir + ": no checkpoint files");
  }
  std::sort(checkpoint_seqs.rbegin(), checkpoint_seqs.rend());

  // Newest checkpoint whose CRC footer verifies wins; corrupt ones are
  // counted and skipped (an older checkpoint + longer WAL replay is
  // still exact — WALs are only pruned AFTER a successful newer
  // checkpoint, and pruning failures leave extras, never gaps).
  bool loaded = false;
  for (const std::uint64_t seq : checkpoint_seqs) {
    std::string text;
    try {
      text = read_text_file(checkpoint_path(dir, seq));
    } catch (const IoError&) {
      ++r.info.checkpoints_rejected;
      continue;
    }
    if (!verify_checkpoint(text, seq)) {
      ++r.info.checkpoints_rejected;
      continue;
    }
    try {
      r.graph = from_text(text);
    } catch (const std::invalid_argument& e) {
      throw RecoveryError(
          "recover: " + checkpoint_path(dir, seq) +
          ": checksum valid but body unparseable (" + e.what() +
          ") — writer bug or crafted corruption, refusing to guess");
    }
    r.checkpoint_seq = seq;
    loaded = true;
    break;
  }
  if (!loaded) {
    throw RecoveryError("recover: " + dir +
                        ": no checkpoint passed checksum verification");
  }
  r.info.checkpoint_sequence = r.checkpoint_seq;

  // Replay the WAL CHAIN from the chosen checkpoint. Normally one
  // link; when recovery fell back past a rejected newer checkpoint,
  // the un-pruned older WAL replays up to that checkpoint's sequence
  // and the chain continues into the newer (rotated) log — falling
  // back must never silently lose records that ARE on disk. A torn
  // tail is a crash artifact only on the FINAL link (nothing was ever
  // appended after it); a torn link WITH a successor is mid-history
  // damage and recovery refuses to bridge the gap.
  std::uint64_t link = r.checkpoint_seq;
  r.wal_link = link;
  r.next_sequence = link + 1;
  while (fs::exists(wal_path(dir, link), ec)) {
    const std::string wal = wal_path(dir, link);
    Wal::ReplayResult replayed = Wal::replay(wal, link);
    if (replayed.base_sequence != link) {
      throw RecoveryError("recover: " + wal + ": base sequence " +
                          std::to_string(replayed.base_sequence) +
                          " does not match its file name");
    }
    const std::uint64_t reached = replayed.records.empty()
                                      ? link
                                      : replayed.records.back().sequence;
    const bool has_successor =
        reached > link && fs::exists(wal_path(dir, reached), ec);
    if (replayed.torn) {
      if (has_successor) {
        throw RecoveryError(
            "recover: " + wal +
            ": torn in the middle of the WAL chain (a successor log "
            "exists) — records after the tear are unreachable");
      }
      Wal::truncate_to(wal, replayed.valid_bytes);
      ++r.info.torn_tails_repaired;
    }
    r.info.replayed_records += replayed.records.size();
    r.records.insert(r.records.end(),
                     std::make_move_iterator(replayed.records.begin()),
                     std::make_move_iterator(replayed.records.end()));
    r.wal_link = link;
    r.next_sequence = reached + 1;
    if (!has_successor || replayed.torn) break;
    link = reached;
  }
  // Missing WAL after a valid checkpoint is the crash-between-rename-
  // and-rotation window: every record <= checkpoint_seq is folded into
  // the checkpoint, so an empty log is the correct state. The Wal
  // constructor below creates it, and writes the header of a log that
  // a crash left empty or short (truncated to 0 above).

  return std::unique_ptr<DurableEngine>(
      new DurableEngine(std::move(r), std::move(dir), options));
}

DurableEngine::DurableEngine(Recovered&& r, std::string dir,
                             DurableOptions options)
    : dir_(std::move(dir)),
      options_(options),
      checkpoint_sequence_(r.checkpoint_seq),
      recovery_(r.info),
      engine_(std::move(r.graph), options.threads) {
  // One batch apply for the whole chain, before the log is attached (the
  // records are on disk already): a single snapshot build instead of one
  // per record. Ids are then checked record by record.
  std::vector<EdgeMutation> batch;
  batch.reserve(r.records.size());
  for (Wal::Record& rec : r.records) batch.push_back(std::move(rec.mutation));
  std::vector<EdgeId> ids;
  try {
    ids = engine_.apply(batch);
  } catch (const MutationBatchError& e) {
    throw RecoveryError("recover: replaying record " +
                        std::to_string(r.records[e.index()].sequence) + ": " +
                        e.what());
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Wal::Record& rec = r.records[i];
    if (ids[i] != rec.assigned_edge) {
      throw RecoveryError(
          "recover: record " + std::to_string(rec.sequence) +
          " logged edge id " + std::to_string(rec.assigned_edge) +
          " but replay assigned " + std::to_string(ids[i]) +
          " — edge-id stability violated, derived state would be wrong");
    }
  }
  engine_.attach_wal(std::make_unique<Wal>(wal_path(dir_, r.wal_link),
                                           options_.wal, r.wal_link,
                                           r.next_sequence));
}

// ---------------------------------------------------------------------------
// Sync and checkpoint
// ---------------------------------------------------------------------------

void DurableEngine::sync() {
  engine_.with_wal([](Wal& wal) { wal.sync(); });
}

void DurableEngine::checkpoint() {
  engine_.with_wal([this](Wal& wal) {
    // A poisoned log may hold a record the engine rolled back: the
    // engine's state is then no checkpoint of the log's sequence.
    wal.check_writable();
    // Writers are excluded, so the engine is exactly at the WAL's last
    // assigned sequence.
    const std::uint64_t seq = wal.stats().next_sequence - 1;
    const std::string body = to_text(engine_.materialize());
    write_checkpoint_file(dir_, checkpoint_path(dir_, seq), body, seq);

    // The checkpoint is committed; continue the log in wal-<seq>, the
    // file recovery replays after checkpoint-<seq>. A failed rotation
    // poisons the log rather than append where recovery cannot see.
    wal.rotate(wal_path(dir_, seq), seq);
    checkpoint_sequence_ = seq;
    ++checkpoints_written_;

    if (options_.prune_old_files) {
      // Best effort: a file that refuses to die is harmless (recovery
      // scans newest-first), so errors are ignored, not surfaced.
      std::error_code ec;
      for (const auto& entry : fs::directory_iterator(dir_, ec)) {
        const std::string name = entry.path().filename().string();
        const auto ckpt =
            parse_sequenced_name(name, kCheckpointPrefix, kCheckpointSuffix);
        const auto log = parse_sequenced_name(name, kWalPrefix, kWalSuffix);
        if ((ckpt && *ckpt < seq) || (log && *log < seq)) {
          fs::remove(entry.path(), ec);
        }
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

DurableEngine::Stats DurableEngine::stats() const {
  return engine_.with_wal([this](const Wal& wal) {
    Stats s;
    s.wal = wal.stats();
    s.sequence = s.wal.next_sequence - 1;
    s.checkpoint_sequence = checkpoint_sequence_;
    s.checkpoints_written = checkpoints_written_;
    s.recovery = recovery_;
    return s;
  });
}

std::uint64_t DurableEngine::sequence() const {
  return engine_.with_wal(
      [](const Wal& wal) { return wal.stats().next_sequence - 1; });
}

}  // namespace tvg
