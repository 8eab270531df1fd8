#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>

namespace mscope::test {

/// A scratch directory private to this test process:
/// <system temp dir>/mscope_<tag>_<pid>. ctest runs every TEST as its own
/// process, so a fixed path would be shared — and raced — by a parallel
/// `ctest -j`. Nothing is created or removed here.
inline std::filesystem::path scratch_dir(const std::string& tag) {
  return std::filesystem::temp_directory_path() /
         ("mscope_" + tag + "_" + std::to_string(::getpid()));
}

/// scratch_dir(tag), emptied and (re)created.
inline std::filesystem::path fresh_scratch_dir(const std::string& tag) {
  const std::filesystem::path p = scratch_dir(tag);
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p;
}

/// fresh_scratch_dir(tag) for one scope: removed again on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(fresh_scratch_dir(tag)) {}
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace mscope::test
