#ifndef NETOUT_TESTS_SCOPED_TEMP_DIR_H_
#define NETOUT_TESTS_SCOPED_TEMP_DIR_H_

// A uniquely named temporary directory (mkdtemp) that is removed with
// everything in it when the object goes out of scope. ctest runs every
// gtest case as its own process, in parallel under -j, so a test that
// touches the filesystem must never use a fixed path: one case's
// cleanup would truncate or delete files another case has open or
// mmapped. Each test owns one of these and names its files inside it.

#include <stdlib.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

namespace netout {

class ScopedTempDir {
 public:
  explicit ScopedTempDir(std::string_view prefix = "netout") {
    const std::string pattern =
        (std::filesystem::temp_directory_path() /
         (std::string(prefix) + "_XXXXXX"))
            .string();
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp(" << pattern
                    << ") failed: " << std::strerror(errno);
      return;
    }
    path_ = buf.data();
  }

  ~ScopedTempDir() {
    if (path_.empty()) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

  /// `name` inside the directory (not created).
  std::string File(std::string_view name) const {
    return (std::filesystem::path(path_) / name).string();
  }

 private:
  std::string path_;
};

}  // namespace netout

#endif  // NETOUT_TESTS_SCOPED_TEMP_DIR_H_
