#pragma once

#include <cstdint>
#include <filesystem>

#include "transform/declaration.h"

namespace mscope::test {

/// Bytes of the log files under `log_dir`/<node>/ that a built-in
/// declaration matches: what a loss-free collection ingests into matched
/// files.
inline std::uint64_t matched_log_bytes(const std::filesystem::path& log_dir) {
  namespace fs = std::filesystem;
  const transform::DeclarationRegistry registry;
  std::uint64_t total = 0;
  for (const auto& node : fs::directory_iterator(log_dir)) {
    if (!node.is_directory()) continue;
    for (const auto& f : fs::directory_iterator(node.path())) {
      if (f.is_regular_file() &&
          registry.match(f.path().filename().string()) != nullptr) {
        total += f.file_size();
      }
    }
  }
  return total;
}

}  // namespace mscope::test
