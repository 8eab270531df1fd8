#pragma once

#include <cstddef>

#include "util/io_file.h"

namespace mscope::test {

/// Kills the durability layer's physical operation number `target`
/// (0-based). With `torn` set, a write lands only half its payload first —
/// the torn-write variant.
struct CrashAtInjector final : util::io::FaultInjector {
  std::size_t target;
  bool torn;
  std::size_t seen = 0;
  explicit CrashAtInjector(std::size_t t, bool torn_write)
      : target(t), torn(torn_write) {}
  Decision on_op(const Event& ev) override {
    if (seen++ != target) return {};
    Decision d;
    d.crash = true;
    d.partial_bytes = (torn && ev.op == Op::kWrite) ? ev.bytes / 2 : 0;
    return d;
  }
};

}  // namespace mscope::test
