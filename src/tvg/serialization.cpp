#include "tvg/serialization.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <concepts>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "tvg/delta_overlay.hpp"
#include "tvg/io.hpp"

namespace tvg {
namespace {

// The writer: each token goes through one `put` overload into the
// caller's string, so a line reads like the stream expression it
// replaced and costs no temporary.
void put(std::string& out, std::string_view s) { out += s; }
void put(std::string& out, char c) { out += c; }
/// Decimal form of `v`, as `<<` on a classic-locale stream writes it.
void put(std::string& out, std::integral auto v) {
  char buf[24];  // any 64-bit value with its sign
  const char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  out.append(buf, static_cast<std::size_t>(end - buf));
}
void put(std::string& out, const IntervalSet& set);
void put(std::string& out, const Presence& p) { append_presence(out, p); }
void put(std::string& out, const Latency& l) { append_latency(out, l); }

template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  (put(out, parts), ...);
}

void put(std::string& out, const IntervalSet& set) {
  out += '{';
  std::string_view sep;
  for (const TimeInterval& iv : set.intervals()) {
    if (iv.length() == 1) {
      append(out, sep, iv.lo);
    } else {
      append(out, sep, '[', iv.lo, ',', iv.hi, ')');
    }
    sep = ",";
  }
  out += '}';
}

class SpecParser {
 public:
  SpecParser(std::string_view text, std::size_t line)
      : text_(text), line_(line) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("from_text: line " + std::to_string(line_) +
                                ": " + what + " near '" +
                                std::string(text_.substr(pos_)) + "'");
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Time number() {
    Time value = 0;
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || ptr == begin) fail("expected a number");
    pos_ += static_cast<std::size_t>(ptr - begin);
    return value;
  }

  IntervalSet interval_set() {
    expect('{');
    IntervalSet set;
    if (consume('}')) return set;
    for (;;) {
      if (consume('[')) {
        const Time lo = number();
        expect(',');
        const Time hi = number();
        expect(')');
        set.insert({lo, hi});
      } else {
        set.insert_point(number());
      }
      if (consume('}')) break;
      expect(',');
    }
    return set;
  }

  [[nodiscard]] bool done() const { return pos_ >= text_.size(); }

  /// Runs a schedule constructor on already-parsed fields; its own
  /// validation error (a period below 1, say) gets this line's prefix
  /// like every other parse error.
  template <typename Make>
  auto validated(Make&& make) const {
    try {
      return make();
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("from_text: line " + std::to_string(line_) +
                                  ": " + e.what());
    }
  }

 private:
  std::string_view text_;
  std::size_t pos_{0};
  std::size_t line_;
};

// parse_presence/parse_latency sit below the anonymous-namespace spec
// parser; the public *_from_spec wrappers at the bottom of this file
// reuse them with a synthetic line number.
Presence parse_presence(std::string_view spec, std::size_t line) {
  SpecParser p(spec, line);
  if (p.consume_word("always")) return Presence::always();
  if (p.consume_word("never")) return Presence::never();
  if (p.consume_word("at:")) return Presence::intervals(p.interval_set());
  if (p.consume_word("intervals:")) {
    return Presence::intervals(p.interval_set());
  }
  if (p.consume_word("periodic:")) {
    const Time period = p.number();
    p.expect(':');
    IntervalSet pattern = p.interval_set();
    return p.validated(
        [&] { return Presence::periodic(period, std::move(pattern)); });
  }
  if (p.consume_word("semi:")) {
    const Time t0 = p.number();
    p.expect(':');
    IntervalSet init = p.interval_set();
    p.expect(':');
    const Time period = p.number();
    p.expect(':');
    IntervalSet pattern = p.interval_set();
    return p.validated([&] {
      return Presence::semi_periodic(t0, std::move(init), period,
                                     std::move(pattern));
    });
  }
  if (p.consume_word("eventually:")) {
    const Time from = p.number();
    return p.validated([&] { return Presence::eventually_always(from); });
  }
  p.fail("unknown presence spec");
}

Latency parse_latency(std::string_view spec, std::size_t line) {
  SpecParser p(spec, line);
  if (p.consume_word("const:")) {
    const Time value = p.number();
    return p.validated([&] { return Latency::constant(value); });
  }
  if (p.consume_word("affine:")) {
    const Time a = p.number();
    p.expect(',');
    const Time b = p.number();
    return p.validated([&] { return Latency::affine(a, b); });
  }
  p.fail("unknown latency spec");
}

/// Whitespace as `>>` on a classic-locale stream skips it (std::isspace):
/// space and '\t' '\n' '\v' '\f' '\r'.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Splits `line` into whitespace-separated tokens viewing into it; `out`
/// is cleared first and keeps its capacity across lines.
void split_ws(std::string_view line, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t i = 0;
  for (;;) {
    while (i < line.size() && is_space(line[i])) ++i;
    if (i == line.size()) return;
    const std::size_t start = i;
    while (i < line.size() && !is_space(line[i])) ++i;
    out.push_back(line.substr(start, i - start));
  }
}

}  // namespace

void append_presence(std::string& out, const Presence& p) {
  if (!p.is_semi_periodic()) {
    throw std::invalid_argument(
        "to_text: predicate presences cannot be serialized");
  }
  if (p.is_always()) {
    out += "always";
  } else if (p.is_never()) {
    out += "never";
  } else if (p.pattern().empty()) {
    append(out, "intervals:", p.initial());
  } else if (p.initial_length() == 0) {
    append(out, "periodic:", p.period(), ':', p.pattern());
  } else {
    append(out, "semi:", p.initial_length(), ':', p.initial(), ':',
           p.period(), ':', p.pattern());
  }
}

void append_latency(std::string& out, const Latency& l) {
  if (const auto c = l.constant_value()) {
    append(out, "const:", *c);
  } else if (const auto ab = l.affine_coefficients()) {
    append(out, "affine:", ab->first, ',', ab->second);
  } else {
    throw std::invalid_argument(
        "to_text: function latencies cannot be serialized");
  }
}

std::string to_text(const TimeVaryingGraph& g) {
  std::string out;
  // Edge lines run ~80 bytes on the generated graphs; one reservation
  // covers the whole dump at that rate.
  out.reserve(16 + 16 * g.node_count() + 96 * g.edge_count());
  out += "tvg 1\n";
  for (NodeId v = 0; v < g.node_count(); ++v) {
    append(out, "node ", g.node_name(v), '\n');
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    append(out, "edge ", g.node_name(ed.from), ' ', g.node_name(ed.to), ' ',
           ed.label, " presence=", ed.presence, " latency=", ed.latency,
           " name=", g.edge_name(e), '\n');
  }
  return out;
}

std::string to_text(const TimeVaryingGraph& g,
                    std::span<const EdgeMutation> delta) {
  std::string out = to_text(g);
  // Ids the log's replay defines so far: base edges plus earlier adds.
  EdgeId live_edges = g.edge_count();
  for (const EdgeMutation& m : delta) {
    switch (m.kind) {
      case EdgeMutation::Kind::kAddEdge:
        if (m.from >= g.node_count() || m.to >= g.node_count()) {
          throw std::invalid_argument(
              "to_text: delta add_edge endpoint out of range");
        }
        append(out, "delta add_edge ", g.node_name(m.from), ' ',
               g.node_name(m.to), ' ', m.label, " presence=", m.presence,
               " latency=", m.latency, " name=", m.name, '\n');
        ++live_edges;
        break;
      case EdgeMutation::Kind::kRemoveEdge:
        if (m.edge >= live_edges) {
          throw std::invalid_argument(
              "to_text: delta remove_edge references an unknown edge");
        }
        append(out, "delta remove_edge ", m.edge, '\n');
        break;
      case EdgeMutation::Kind::kPatchPresence:
        if (m.edge >= live_edges) {
          throw std::invalid_argument(
              "to_text: delta patch_presence references an unknown edge");
        }
        append(out, "delta patch_presence ", m.edge, " presence=", m.presence,
               '\n');
        break;
      case EdgeMutation::Kind::kOverrideLatency:
        if (m.edge >= live_edges) {
          throw std::invalid_argument(
              "to_text: delta override_latency references an unknown edge");
        }
        append(out, "delta override_latency ", m.edge, " latency=", m.latency,
               '\n');
        break;
    }
  }
  return out;
}

namespace {

[[noreturn]] void fail_line(std::size_t line_no, const std::string& what) {
  throw std::invalid_argument("from_text: line " + std::to_string(line_no) +
                              ": " + what);
}

/// One parse's table of one spec kind: each distinct spec text is parsed
/// and validated once, and every later line with the same text copies its
/// immutable shared schedule. Only successful parses enter, so a bad spec
/// fails on the first line that carries it. Keys view into the text.
template <typename Schedule, Schedule (*parse)(std::string_view, std::size_t)>
struct SpecTable {
  std::unordered_map<std::string_view, Schedule> parsed;

  const Schedule& operator()(std::string_view spec, std::size_t line) {
    auto it = parsed.find(spec);
    if (it == parsed.end()) it = parsed.emplace(spec, parse(spec, line)).first;
    return it->second;
  }
};
struct Specs {
  SpecTable<Presence, parse_presence> presence;
  SpecTable<Latency, parse_latency> latency;
};

/// The `from to label attr...` tail shared by `edge` and `delta add_edge`
/// lines; its schedules live in the parse's Specs.
struct EdgeTail {
  NodeId from;
  NodeId to;
  Symbol label;
  const Presence* presence;
  const Latency* latency;
  std::string_view name;
};

/// `nodes` maps names to ids; `directive` names the line kind in the
/// missing-attribute error.
EdgeTail parse_edge_tail(
    std::span<const std::string_view> tokens, const TimeVaryingGraph& g,
    const std::unordered_map<std::string_view, NodeId>& nodes,
    Specs& specs, std::string_view directive, std::size_t line_no) {
  auto endpoint = [&](std::string_view name) {
    // A generated name `v<N>` is node N's: guess the id from the digits
    // (0 if none parse) and keep it if that node has exactly this name;
    // names are unique, so a confirmed guess is the answer.
    NodeId id = 0;
    (void)std::from_chars(name.data() + 1, name.data() + name.size(), id);
    if (id < g.node_count() && g.node_name(id) == name) return id;
    const auto it = nodes.find(name);
    if (it == nodes.end()) {
      fail_line(line_no, "unknown node '" + std::string(name) + "'");
    }
    return it->second;
  };
  EdgeTail t{endpoint(tokens[0]), endpoint(tokens[1]), tokens[2][0],
             nullptr, nullptr, {}};
  if (tokens[2].size() != 1) {
    fail_line(line_no, "label must be a single character");
  }
  for (const std::string_view tok : tokens.subspan(3)) {
    if (tok.starts_with("presence=")) {
      t.presence = &specs.presence(tok.substr(9), line_no);
    } else if (tok.starts_with("latency=")) {
      t.latency = &specs.latency(tok.substr(8), line_no);
    } else if (tok.starts_with("name=")) {
      t.name = tok.substr(5);
    } else {
      fail_line(line_no, "unknown attribute '" + std::string(tok) + "'");
    }
  }
  if (t.presence == nullptr || t.latency == nullptr) {
    fail_line(line_no,
              std::string(directive) + " needs both presence= and latency=");
  }
  return t;
}

/// Shared parser: `delta_out == nullptr` is the strict mode (from_text),
/// where a delta line falls through to "unknown directive". Linear in
/// the input: lines and tokens are views into `text`, and node names and
/// specs are keyed by those views (`text` outlives the parse; the
/// graph's own name strings may move as it grows).
TimeVaryingGraph parse_text(std::string_view text,
                            std::vector<EdgeMutation>* delta_out) {
  TimeVaryingGraph g;
  std::unordered_map<std::string_view, NodeId> nodes;
  Specs specs;
  std::vector<std::string_view> tokens;
  std::size_t line_no = 0;
  bool header_seen = false;
  EdgeId delta_adds = 0;
  auto fail = [&](const std::string& what) { fail_line(line_no, what); };
  // Lines as std::getline cuts them: a final line without '\n' counts,
  // a trailing '\n' opens no extra line.
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t nl = std::min(text.find('\n', pos), text.size());
    split_ws(text.substr(pos, nl - pos), tokens);
    pos = nl + 1;
    ++line_no;
    if (tokens.empty() || tokens[0].starts_with('#')) continue;
    if (!header_seen) {
      if (tokens.size() != 2 || tokens[0] != "tvg" || tokens[1] != "1") {
        fail("expected header 'tvg 1'");
      }
      header_seen = true;
      continue;
    }
    if (tokens[0] == "node") {
      if (tokens.size() != 2) fail("node wants exactly one name");
      const auto id = static_cast<NodeId>(g.node_count());
      if (!nodes.emplace(tokens[1], id).second) {
        fail("duplicate node '" + std::string(tokens[1]) + "'");
      }
      g.add_node(std::string(tokens[1]));
    } else if (tokens[0] == "edge") {
      if (tokens.size() < 5) fail("edge wants: from to label presence= ...");
      if (g.edge_count() == 0) {
        // The lines from here on, none shorter than `edge a b c
        // presence=never latency=const:0` (41 bytes), bound the edges to
        // come; past the writer's node lines the bound is tight.
        const std::string_view rest = text.substr(nl);
        g.reserve_edges(std::min<std::size_t>(
            std::count(rest.begin(), rest.end(), '\n') + 1,
            rest.size() / 41 + 1));
      }
      const EdgeTail e = parse_edge_tail(std::span(tokens).subspan(1), g,
                                         nodes, specs, "edge", line_no);
      g.add_edge(e.from, e.to, e.label, *e.presence, *e.latency,
                 std::string(e.name));
    } else if (delta_out != nullptr && tokens[0] == "delta") {
      if (tokens.size() < 2) fail("delta wants an operation");
      // Ids defined so far under replay: base edges + adds parsed above.
      const EdgeId live_edges = g.edge_count() + delta_adds;
      auto parse_edge_id = [&](std::string_view tok) -> EdgeId {
        EdgeId id = 0;
        const char* end = tok.data() + tok.size();
        const auto [ptr, ec] = std::from_chars(tok.data(), end, id);
        if (ec != std::errc{} || ptr != end) {
          fail("expected an edge id, got '" + std::string(tok) + "'");
        }
        if (id >= live_edges) {
          fail("delta references unknown edge " + std::string(tok));
        }
        return id;
      };
      if (tokens[1] == "add_edge") {
        if (tokens.size() < 6) {
          fail("delta add_edge wants: from to label presence= latency= ...");
        }
        const EdgeTail e = parse_edge_tail(std::span(tokens).subspan(2), g,
                                           nodes, specs, "delta add_edge",
                                           line_no);
        delta_out->push_back(EdgeMutation::add_edge(
            e.from, e.to, e.label, *e.presence, *e.latency,
            std::string(e.name)));
        ++delta_adds;
      } else if (tokens[1] == "remove_edge") {
        if (tokens.size() != 3) fail("delta remove_edge wants an edge id");
        delta_out->push_back(
            EdgeMutation::remove_edge(parse_edge_id(tokens[2])));
      } else if (tokens[1] == "patch_presence") {
        if (tokens.size() != 4 || !tokens[3].starts_with("presence=")) {
          fail("delta patch_presence wants: <edge id> presence=...");
        }
        const EdgeId id = parse_edge_id(tokens[2]);
        delta_out->push_back(EdgeMutation::patch_presence(
            id, specs.presence(tokens[3].substr(9), line_no)));
      } else if (tokens[1] == "override_latency") {
        if (tokens.size() != 4 || !tokens[3].starts_with("latency=")) {
          fail("delta override_latency wants: <edge id> latency=...");
        }
        const EdgeId id = parse_edge_id(tokens[2]);
        delta_out->push_back(EdgeMutation::override_latency(
            id, specs.latency(tokens[3].substr(8), line_no)));
      } else {
        fail("unknown delta operation '" + std::string(tokens[1]) + "'");
      }
    } else {
      fail("unknown directive '" + std::string(tokens[0]) + "'");
    }
  }
  if (!header_seen) {
    throw std::invalid_argument("from_text: empty input (missing header)");
  }
  return g;
}

}  // namespace

TimeVaryingGraph from_text(const std::string& text) {
  return parse_text(text, nullptr);
}

std::pair<TimeVaryingGraph, std::vector<EdgeMutation>> from_text_with_delta(
    const std::string& text) {
  std::vector<EdgeMutation> delta;
  TimeVaryingGraph g = parse_text(text, &delta);
  return {std::move(g), std::move(delta)};
}

std::string presence_to_spec(const Presence& p) {
  std::string out;
  append_presence(out, p);
  return out;
}

std::string latency_to_spec(const Latency& l) {
  std::string out;
  append_latency(out, l);
  return out;
}

Presence presence_from_spec(std::string_view spec) {
  return parse_presence(spec, 0);
}

Latency latency_from_spec(std::string_view spec) {
  return parse_latency(spec, 0);
}

void write_text_file(const std::string& path, std::string_view content) {
  // errno is only meaningful right after the failing operation; capture
  // it before any further stream call can clobber it.
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("write_text_file: open", path, errno);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (out.fail()) throw IoError("write_text_file: write", path, errno);
  out.flush();
  if (out.fail()) throw IoError("write_text_file: flush", path, errno);
  out.close();
  if (out.fail()) throw IoError("write_text_file: close", path, errno);
}

std::string read_file(const std::string& path, std::string_view op) {
  // errno is captured before the message string is built: an allocation
  // may clobber it.
  auto fail = [&](const char* step) {
    const int saved = errno;
    return IoError(std::string(op) + step, path, saved);
  };
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw fail(": open");
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  struct stat st{};
  if (::fstat(fd, &st) != 0) throw fail(": read");
  // One byte past the size the file reports, so the read that finds
  // end-of-file has room to run; a file that grew since the fstat
  // grows the buffer instead of being cut short.
  std::string data(static_cast<std::size_t>(st.st_size) + 1, '\0');
  std::size_t got = 0;
  for (;;) {
    if (got == data.size()) data.resize(2 * data.size());
    const ssize_t n = ::read(fd, data.data() + got, data.size() - got);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      throw fail(": read");
    }
    got += static_cast<std::size_t>(n);
  }
  data.resize(got);
  return data;
}

std::string read_text_file(const std::string& path) {
  return read_file(path, "read_text_file");
}

}  // namespace tvg
