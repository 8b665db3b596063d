// A scratch directory for one gtest test process. ctest runs every TEST as
// its own process, possibly many at once (`ctest -j`), so fixed names under
// ::testing::TempDir() collide between tests; these names cannot.
//
// Header-only because it reads the running test's name from gtest: include
// it from test binaries only.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

namespace malnet::testkit {

/// Creates ::testing::TempDir()/malnet_<pid>_<suite.test>_<label>_<n>, empty,
/// and removes it with everything in it on destruction. `n` counts the
/// process's directories, so two with one label stay apart too.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(std::string_view label = "tmp") {
    static std::atomic<unsigned> serial{0};
    std::string test = "global";
    if (const auto* info = ::testing::UnitTest::GetInstance()->current_test_info()) {
      test = std::string(info->test_suite_name()) + "." + info->name();
    }
    std::string name = "malnet_" + std::to_string(getpid()) + "_" + test + "_" +
                       std::string(label) + "_" + std::to_string(serial++);
    for (char& c : name) {
      if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '.' && c != '-') c = '_';
    }
    path_ = (std::filesystem::path(::testing::TempDir()) / name).string();
    std::filesystem::remove_all(path_);  // left by an earlier process with this pid
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  /// `path()/name`.
  [[nodiscard]] std::string file(std::string_view name) const {
    return path_ + "/" + std::string(name);
  }

 private:
  std::string path_;
};

}  // namespace malnet::testkit
