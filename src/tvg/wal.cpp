#include "tvg/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <utility>

#include "tvg/failpoint.hpp"
#include "tvg/io.hpp"
#include "tvg/serialization.hpp"

namespace tvg {

// ---------------------------------------------------------------------------
// CRC-32C
// ---------------------------------------------------------------------------

namespace {

/// Slicing-by-8 tables: kCrc32cTables[0] is the classic byte table,
/// kCrc32cTables[k][b] the CRC of byte b followed by k zero bytes, so
/// one step folds eight input bytes with eight lookups.
using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32cTables make_crc32c_tables() {
  Crc32cTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Crc32cTables kCrc32cTables = make_crc32c_tables();

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t seed) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& t = kCrc32cTables;
  std::uint32_t crc = ~seed;
  // Bytes are assembled explicitly (little-endian order, whatever the
  // host's), so the checksum never depends on the machine.
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo =
        crc ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
               std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; size > 0; ++p, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFFu];
  }
  return ~crc;
}

// ---------------------------------------------------------------------------
// Binary framing
// ---------------------------------------------------------------------------

namespace {

constexpr char kMagic[8] = {'T', 'V', 'G', 'W', 'A', 'L', '0', '1'};
/// payload_len + crc + sequence + assigned_edge.
constexpr std::size_t kFrameBytes = 4 + 4 + 8 + 4;
/// A record longer than this is corruption, not data (sanity cap so a
/// flipped length byte cannot ask replay to allocate gigabytes).
constexpr std::uint32_t kMaxPayload = 1u << 26;

void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out.append(b, 4);
}

void put_u64(std::string& out, std::uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out.append(b, 8);
}

/// The kHeaderBytes a log based at `base_sequence` starts with.
std::string header_bytes(std::uint64_t base_sequence) {
  std::string header(kMagic, sizeof(kMagic));
  put_u64(header, base_sequence);
  return header;
}

/// Bounds-checked little-endian reads over the replay buffer. CRC has
/// already vouched for record payloads when these run, so a failure
/// here is flagged as corruption by the caller, never UB.
struct Reader {
  const char* p;
  std::size_t n;
  std::size_t pos{0};

  [[nodiscard]] bool have(std::size_t k) const { return n - pos >= k; }
  std::uint32_t u32() {
    std::uint32_t v;
    std::memcpy(&v, p + pos, 4);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    std::memcpy(&v, p + pos, 8);
    pos += 8;
    return v;
  }
};

void patch_u32(std::string& out, std::size_t at, std::uint32_t v) {
  std::memcpy(out.data() + at, &v, 4);
}

/// A u32 length, then the spec `append` writes, the length patched in
/// after (a spec's size is known only once it is formatted).
template <typename Append>
void put_sized(std::string& out, Append&& append) {
  const std::size_t at = out.size();
  put_u32(out, 0);
  append();
  patch_u32(out, at, static_cast<std::uint32_t>(out.size() - at - 4));
}

/// Appends one record (frame + payload) to `out`. The payload is
///   kind(u8) label(u8) pad(u16) edge(u32) from(u32) to(u32)
///   name_len(u32) name  presence_len(u32) spec  latency_len(u32) spec
/// with the specs formatted in place (serialization.hpp's writer). A
/// runtime-only schedule throws with `out` partly written; the caller
/// drops it.
void append_record(std::string& out, const EdgeMutation& m,
                   std::uint64_t sequence, EdgeId assigned) {
  const std::size_t at = out.size();
  put_u32(out, 0);  // payload_len, patched below
  put_u32(out, 0);  // crc, patched below
  put_u64(out, sequence);
  put_u32(out, assigned);
  out.push_back(static_cast<char>(m.kind));
  out.push_back(m.label);
  out.push_back('\0');
  out.push_back('\0');
  put_u32(out, m.edge);
  put_u32(out, m.from);
  put_u32(out, m.to);
  put_u32(out, static_cast<std::uint32_t>(m.name.size()));
  out.append(m.name);
  put_sized(out, [&] { append_presence(out, m.presence); });
  put_sized(out, [&] { append_latency(out, m.latency); });
  patch_u32(out, at, static_cast<std::uint32_t>(out.size() - at - kFrameBytes));
  patch_u32(out, at + 4, crc32c(out.data() + at + 8, out.size() - at - 8));
}

EdgeMutation decode_mutation(const char* data, std::size_t size,
                             std::uint64_t sequence) {
  auto corrupt = [&](const char* what) -> void {
    throw RecoveryError("wal replay: record " + std::to_string(sequence) +
                        ": checksum valid but payload undecodable (" + what +
                        ") — format bug or crafted corruption");
  };
  Reader r{data, size};
  if (!r.have(16)) corrupt("truncated fixed fields");
  const auto kind = static_cast<std::uint8_t>(data[r.pos]);
  const char label = data[r.pos + 1];
  r.pos += 4;
  const std::uint32_t edge = r.u32();
  const std::uint32_t from = r.u32();
  const std::uint32_t to = r.u32();
  auto take_string = [&](const char* what) -> std::string {
    if (!r.have(4)) corrupt(what);
    const std::uint32_t len = r.u32();
    if (!r.have(len)) corrupt(what);
    std::string s(data + r.pos, len);
    r.pos += len;
    return s;
  };
  const std::string name = take_string("name");
  const std::string presence_spec = take_string("presence");
  const std::string latency_spec = take_string("latency");
  if (r.pos != size) corrupt("trailing bytes");

  EdgeMutation m;
  switch (static_cast<EdgeMutation::Kind>(kind)) {
    case EdgeMutation::Kind::kAddEdge:
      m = EdgeMutation::add_edge(from, to, label,
                                 presence_from_spec(presence_spec),
                                 latency_from_spec(latency_spec), name);
      break;
    case EdgeMutation::Kind::kRemoveEdge:
      m = EdgeMutation::remove_edge(edge);
      break;
    case EdgeMutation::Kind::kPatchPresence:
      m = EdgeMutation::patch_presence(edge,
                                       presence_from_spec(presence_spec));
      break;
    case EdgeMutation::Kind::kOverrideLatency:
      m = EdgeMutation::override_latency(edge,
                                         latency_from_spec(latency_spec));
      break;
    default:
      corrupt("unknown mutation kind");
  }
  return m;
}

void write_all(int fd, const char* data, std::size_t size,
               const std::string& path) {
  while (size > 0) {
    const ssize_t written = ::write(fd, data, size);
    if (written < 0) {
      if (errno == EINTR) continue;
      throw IoError("wal: write", path, errno);
    }
    data += written;
    size -= static_cast<std::size_t>(written);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Wal
// ---------------------------------------------------------------------------

Wal::Wal(std::string path, WalOptions options, std::uint64_t base_sequence,
         std::uint64_t next_sequence)
    : path_(std::move(path)),
      options_(options),
      next_sequence_(next_sequence),
      last_sync_(std::chrono::steady_clock::now()) {
  if (options_.every_n == 0) options_.every_n = 1;
  open_file(base_sequence);
  stats_.next_sequence = next_sequence_;
  // Everything already on disk (replayed records) is considered synced;
  // only appends made through THIS handle can lag.
  stats_.synced_sequence = next_sequence_ - 1;
}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

void Wal::open_file(std::uint64_t base_sequence) {
  TVG_FAILPOINT("wal.open");
  fd_ = ::open(path_.c_str(), O_CREAT | O_WRONLY | O_APPEND | O_CLOEXEC,
               0644);
  if (fd_ < 0) throw IoError("wal: open", path_, errno);
  try {
    struct stat st{};
    if (::fstat(fd_, &st) != 0) throw IoError("wal: fstat", path_, errno);
    if (st.st_size == 0) {
      TVG_FAILPOINT("wal.open.header");
      const std::string header = header_bytes(base_sequence);
      write_all(fd_, header.data(), header.size(), path_);
      stats_.bytes_written += header.size();
    }
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

void Wal::rotate(std::string path, std::uint64_t base_sequence) {
  ::close(fd_);
  fd_ = -1;
  poisoned_ = true;  // until the new file is open
  path_ = std::move(path);
  next_sequence_ = base_sequence + 1;
  appends_since_sync_ = 0;
  last_sync_ = std::chrono::steady_clock::now();
  stats_.next_sequence = next_sequence_;
  stats_.synced_sequence = base_sequence;
  open_file(base_sequence);
  poisoned_ = false;
}

void Wal::check_writable() const {
  if (poisoned_) {
    throw IoError("wal: a failed append or rotation poisoned the log; "
                  "recover to continue",
                  path_, 0);
  }
}

std::uint64_t Wal::append(std::span<const EdgeMutation> batch,
                          std::span<const EdgeId> assigned) {
  check_writable();
  if (batch.empty()) return next_sequence_ - 1;
  // Every frame is staged before the first write: a runtime-only
  // schedule anywhere in the batch throws here with nothing written.
  std::string frames;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    append_record(frames, batch[i], next_sequence_ + i, assigned[i]);
  }

  TVG_FAILPOINT("wal.append.before");
  // From here bytes may reach the file; the handle stays poisoned unless
  // the whole append returns.
  poisoned_ = true;
  const FailPointAction partial = TVG_FAILPOINT_CONSUME("wal.append.partial");
  if (partial.kind != FailPointAction::Kind::kNone) {
    // Torn write: `arg` bytes of the frames reach the file, then the
    // "process dies". Clamped below the full batch so the tail really
    // is torn, whatever arg the schedule drew.
    const std::size_t bytes =
        std::min<std::size_t>(partial.arg, frames.size() - 1);
    write_all(fd_, frames.data(), bytes, path_);
    if (partial.kind == FailPointAction::Kind::kError) {
      throw FailPointError("wal.append.partial: short write injected");
    }
    throw CrashInjected("wal.append.partial: crash mid-append injected");
  }

  write_all(fd_, frames.data(), frames.size(), path_);
  next_sequence_ += batch.size();
  appends_since_sync_ += batch.size();
  stats_.appends += batch.size();
  stats_.bytes_written += frames.size();
  stats_.next_sequence = next_sequence_;
  TVG_FAILPOINT("wal.append.after");
  poisoned_ = false;
  return next_sequence_ - 1;
}

bool Wal::maybe_sync() {
  bool due = false;
  switch (options_.sync) {
    case SyncPolicy::kAlways:
      due = appends_since_sync_ > 0;
      break;
    case SyncPolicy::kEveryN:
      due = appends_since_sync_ >= options_.every_n;
      break;
    case SyncPolicy::kInterval:
      due = appends_since_sync_ > 0 &&
            std::chrono::steady_clock::now() - last_sync_ >= options_.interval;
      break;
  }
  if (due) sync();
  return due;
}

void Wal::sync() {
  if (next_sequence_ - 1 == stats_.synced_sequence) return;
  TVG_FAILPOINT("wal.fsync");
  if (::fsync(fd_) != 0) throw IoError("wal: fsync", path_, errno);
  stats_.synced_sequence = next_sequence_ - 1;
  ++stats_.syncs;
  appends_since_sync_ = 0;
  last_sync_ = std::chrono::steady_clock::now();
}

Wal::ReplayResult Wal::replay(const std::string& path,
                              std::optional<std::uint64_t> base_sequence) {
  const std::string data = read_file(path, "wal replay");

  ReplayResult result;
  if (base_sequence && data.size() < kHeaderBytes &&
      header_bytes(*base_sequence).starts_with(data)) {
    // A crash between the file's creation and its header write: a torn
    // tail at offset 0 (the Wal constructor writes a fresh header).
    result.base_sequence = *base_sequence;
    result.torn = true;
    return result;
  }
  if (data.size() < kHeaderBytes ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    throw RecoveryError("wal replay: " + path +
                        ": missing or corrupt header (not a TVGWAL01 file)");
  }
  std::memcpy(&result.base_sequence, data.data() + sizeof(kMagic), 8);
  result.valid_bytes = kHeaderBytes;

  std::size_t pos = kHeaderBytes;
  std::uint64_t expected = result.base_sequence + 1;
  while (pos < data.size()) {
    // Anything that fails from here to the CRC check is a torn tail:
    // record what was valid and stop (recovery truncates the rest).
    if (data.size() - pos < kFrameBytes) {
      result.torn = true;
      break;
    }
    std::uint32_t payload_len;
    std::uint32_t crc_stored;
    std::uint64_t sequence;
    std::uint32_t assigned;
    std::memcpy(&payload_len, data.data() + pos, 4);
    std::memcpy(&crc_stored, data.data() + pos + 4, 4);
    std::memcpy(&sequence, data.data() + pos + 8, 8);
    std::memcpy(&assigned, data.data() + pos + 16, 4);
    if (payload_len > kMaxPayload ||
        data.size() - pos - kFrameBytes < payload_len) {
      result.torn = true;
      break;
    }
    const std::size_t record_bytes = kFrameBytes + payload_len;
    const std::uint32_t crc_actual =
        crc32c(data.data() + pos + 8, record_bytes - 8);
    if (crc_actual != crc_stored) {
      result.torn = true;
      break;
    }
    // CRC-valid record: from here on failures are corruption of the
    // log's own invariants, not a crash artifact.
    if (sequence != expected) {
      throw RecoveryError(
          "wal replay: " + path + ": sequence gap (expected " +
          std::to_string(expected) + ", found " + std::to_string(sequence) +
          ") — records lost in the middle of an intact log");
    }
    Record record;
    record.sequence = sequence;
    record.assigned_edge = assigned;
    record.mutation =
        decode_mutation(data.data() + pos + kFrameBytes, payload_len,
                        sequence);
    result.records.push_back(std::move(record));
    pos += record_bytes;
    result.valid_bytes = pos;
    ++expected;
  }
  return result;
}

void Wal::truncate_to(const std::string& path, std::uint64_t valid_bytes) {
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    throw IoError("wal: truncate", path, errno);
  }
}

}  // namespace tvg
