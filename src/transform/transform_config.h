#pragma once

namespace mscope::transform {

/// Knobs of the transform engine (StreamingTransformer), shared by the batch
/// DataTransformer that wraps it.
struct TransformConfig {
  /// Worker threads for the parse passes, streamed or batch (the pure
  /// tokenize/convert stage; table reconciliation always runs on the calling
  /// thread in deterministic file order, so the warehouse is identical at
  /// any worker count). 1 = parse inline, 0 = hardware concurrency.
  unsigned parse_workers = 1;
};

}  // namespace mscope::transform
