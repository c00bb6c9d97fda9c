// Scratch directories for the durability suites (WAL, recovery,
// corruption): tvg_<suite>_<pid>_<tag> under ::testing::TempDir(),
// emptied when made and removed, contents and all, when the owning
// ScopedDir goes out of scope, so a test run leaves no directory
// behind.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <utility>

namespace tvg {

/// The directory's path; a ScopedDir IS that string and converts to a
/// std::filesystem::path, so it goes wherever a path goes. Move-only:
/// exactly one owner removes the directory.
class ScopedDir : public std::string {
 public:
  /// Empties tvg_<suite>_<pid>_<tag>, and creates it when `create`.
  ScopedDir(const std::string& suite, const std::string& tag,
            bool create = false) {
    std::string name = "tvg_";
    name += suite;
    name += '_';
    name += std::to_string(::getpid());
    name += '_';
    name += tag;
    assign((std::filesystem::path(::testing::TempDir()) / name).string());
    std::filesystem::remove_all(path());
    if (create) std::filesystem::create_directories(path());
  }
  ScopedDir(ScopedDir&& other) noexcept : std::string(std::move(other)) {
    other.clear();
  }
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;
  ScopedDir& operator=(ScopedDir&&) = delete;
  ~ScopedDir() {
    if (empty()) return;
    std::error_code ec;  // best effort: a destructor must not throw
    std::filesystem::remove_all(path(), ec);
  }

  [[nodiscard]] std::filesystem::path path() const {
    return std::filesystem::path(static_cast<const std::string&>(*this));
  }
  operator std::filesystem::path() const { return path(); }
};

}  // namespace tvg
