// A plain-text exchange format for time-varying graphs, so constructed
// schedules (including the paper's Figure 1 in its semi-periodic parts)
// can be stored, diffed and reloaded.
//
//   tvg 1
//   node v0
//   node v1
//   edge v0 v1 a presence=periodic:24:{6,7} latency=const:3 name=morning
//
// Presence specs:
//   always | never
//   at:{t1,t2,...}                      exact instants
//   intervals:{[lo,hi),...}             finite interval union
//   periodic:P:{...}                    pattern repeating with period P
//   semi:T0:{init}:P:{pattern}          general semi-periodic
//   eventually:T                        present iff t >= T
// Latency specs:
//   const:c | affine:a,b
// Predicate presences and function latencies are runtime-only and are
// rejected by the writer (by design: they cannot round-trip).
//
// A pending mutation log (delta_overlay.hpp) rides along as `delta`
// lines after the base dump, so a mutable graph can be checkpointed
// mid-stream without folding the delta first:
//
//   delta add_edge v0 v1 b presence=always latency=const:2 name=patch
//   delta remove_edge 3
//   delta patch_presence 0 presence=eventually:10
//   delta override_latency 2 latency=const:7
//
// Edge ids in delta lines are the ids the log's own replay produces
// (base edges in dump order, then each add in log order) — the same
// numbering QueryEngine::apply hands out. Plain from_text stays
// strict and rejects delta lines; use from_text_with_delta.
//
// One writer produces every spec byte on disk: append_presence and
// append_latency format into the caller's std::string with
// std::to_chars, to_text reserves one buffer and appends every line
// (the delta lines included) to it, and the WAL (wal.cpp) appends the
// same specs straight into its frames. Its exact output is pinned by
// Serialization.WriterBytesArePinned (tests/test_composition.cpp) and
// Wal.FrameBytesArePinned (tests/test_wal.cpp): a change there breaks
// every checkpoint and log already written.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "tvg/graph.hpp"

namespace tvg {

struct EdgeMutation;  // delta_overlay.hpp

/// Serializes `g`. Throws std::invalid_argument if the graph contains
/// runtime-only schedules (predicates / function latencies).
[[nodiscard]] std::string to_text(const TimeVaryingGraph& g);

/// Serializes `g` followed by one `delta` line per pending mutation
/// (typically MutableEngine::pending_log()). Throws std::invalid_argument
/// on runtime-only schedules or a log entry referencing an edge/node the
/// pair (g, delta) does not define.
[[nodiscard]] std::string to_text(const TimeVaryingGraph& g,
                                  std::span<const EdgeMutation> delta);

/// Parses the textual format. Throws std::invalid_argument with a line
/// number on malformed input (including any `delta` line: the plain
/// parser is strict so a checkpoint with pending mutations cannot be
/// silently truncated to its base). Each distinct spec text is parsed
/// once: edges whose `presence=` (or `latency=`) text is equal share one
/// immutable schedule, as do the delta lines of from_text_with_delta.
[[nodiscard]] TimeVaryingGraph from_text(const std::string& text);

/// Parses base graph + pending mutation log. Replaying the returned log
/// over the returned graph (QueryEngine::apply)
/// reproduces the serialized mutable state, pending delta included.
[[nodiscard]] std::pair<TimeVaryingGraph, std::vector<EdgeMutation>>
from_text_with_delta(const std::string& text);

// ---------------------------------------------------------------------------
// Component spec strings — the `presence=`/`latency=` vocabulary above,
// exposed standalone so binary formats (the WAL's EdgeMutation records,
// wal.hpp) can embed exactly the schedule encoding the text format
// round-trips, instead of inventing a second one.
// ---------------------------------------------------------------------------

/// Appends the spec-string form of one ρ (e.g. "periodic:24:{6,7}") to
/// `out`. Throws std::invalid_argument on runtime-only (predicate)
/// presences, with `out` unchanged.
void append_presence(std::string& out, const Presence& p);
/// Appends the spec-string form of one ζ (e.g. "const:3") to `out`.
/// Throws std::invalid_argument on runtime-only (function) latencies,
/// with `out` unchanged.
void append_latency(std::string& out, const Latency& l);
/// append_presence into a fresh string.
[[nodiscard]] std::string presence_to_spec(const Presence& p);
/// append_latency into a fresh string.
[[nodiscard]] std::string latency_to_spec(const Latency& l);
/// Inverse of presence_to_spec. Throws std::invalid_argument on a
/// malformed spec.
[[nodiscard]] Presence presence_from_spec(std::string_view spec);
/// Inverse of latency_to_spec. Throws std::invalid_argument on a
/// malformed spec.
[[nodiscard]] Latency latency_from_spec(std::string_view spec);

// ---------------------------------------------------------------------------
// Checked file helpers — every text-format file exchange in examples,
// benches and the durability layer goes through these instead of raw
// ofstream/ifstream, so a full disk or an unwritable path is a typed
// tvg::IoError (io.hpp) with errno context, never a silent truncation.
// ---------------------------------------------------------------------------

/// Writes `content` to `path` (replacing any existing file), verifying
/// every stream operation. Throws tvg::IoError on open/write/close
/// failure. NOT atomic — checkpoint writers that need crash-atomicity
/// use the temp-file + fsync + rename path in durable_engine.cpp.
void write_text_file(const std::string& path, std::string_view content);

/// Reads all of `path` into one string sized from the file. Throws
/// tvg::IoError "<op>: open" / "<op>: read" on failure.
[[nodiscard]] std::string read_file(const std::string& path,
                                    std::string_view op);

/// read_file(path, "read_text_file").
[[nodiscard]] std::string read_text_file(const std::string& path);

}  // namespace tvg
