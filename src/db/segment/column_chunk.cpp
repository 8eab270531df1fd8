#include "db/segment/column_chunk.h"

#include <atomic>
#include <string_view>
#include <unordered_map>

namespace mscope::db::segment {

namespace {

void encode_varint(std::vector<std::uint8_t>& out, std::int64_t delta) {
  std::uint64_t d;
  std::memcpy(&d, &delta, sizeof(d));
  // Zigzag: small negatives become small unsigned values. The sign fill is
  // spelled with a branch to keep the arithmetic fully defined on unsigned.
  const std::uint64_t sign_fill = (d >> 63) ? ~std::uint64_t{0} : 0;
  std::uint64_t u = (d << 1) ^ sign_fill;
  while (u >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(u) | 0x80);
    u >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(u));
}

std::uint64_t next_chunk_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Random access into delta streams comes in sequential runs (index walks
/// visit rows in near-insertion order), so a single cached decoded block per
/// thread removes almost all repeated decoding. Keyed by a process-unique
/// chunk id, so a chunk freed and another allocated at the same address can
/// never serve stale values.
struct BlockCache {
  std::uint64_t chunk_id = 0;
  std::size_t block = static_cast<std::size_t>(-1);
  std::int64_t vals[IntChunk::kBlock];
};

thread_local BlockCache g_block_cache;

}  // namespace

ValidityBitmap ValidityBitmap::from_words(std::vector<std::uint64_t> words,
                                          std::size_t size) {
  ValidityBitmap b;
  b.words_ = std::move(words);
  b.size_ = size;
  const std::size_t need = (size + 63) / 64;
  b.words_.resize(need);
  std::size_t set = 0;
  for (std::size_t w = 0; w < need; ++w) {
    std::uint64_t word = b.words_[w];
    if (w == need - 1 && size % 64 != 0) {
      word &= (std::uint64_t{1} << (size % 64)) - 1;  // ignore padding bits
    }
    set += static_cast<std::size_t>(__builtin_popcountll(word));
  }
  b.nulls_ = size - set;
  return b;
}

IntChunk::IntChunk(std::span<const std::int64_t> cells, ValidityBitmap valid)
    : valid_(std::move(valid)), id_(next_chunk_id()) {
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    // NULL rows repeat the previous value (delta 0): position stays == row.
    const std::int64_t v = valid_.get(i) ? cells[i] : prev;
    encode_varint(bytes_, v - prev);
    prev = v;
  }
  bytes_.shrink_to_fit();
  build_directory();
}

IntChunk::IntChunk(std::vector<std::uint8_t> bytes, ValidityBitmap valid)
    : valid_(std::move(valid)), bytes_(std::move(bytes)),
      id_(next_chunk_id()) {
  build_directory();
}

void IntChunk::build_directory() {
  const std::size_t n = valid_.size();
  offsets_.reserve((n + kBlock - 1) / kBlock);
  bases_.reserve(offsets_.capacity());
  const std::uint8_t* base = bytes_.data();
  const std::uint8_t* p = base;
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % kBlock == 0) {
      offsets_.push_back(static_cast<std::uint32_t>(p - base));
      bases_.push_back(prev);
    }
    prev += decode_varint(p);
  }
}

std::int64_t IntChunk::value(std::size_t i) const {
  const std::size_t k = i / kBlock;
  BlockCache& cache = g_block_cache;
  if (cache.chunk_id != id_ || cache.block != k) {
    const std::uint8_t* p = bytes_.data() + offsets_[k];
    std::int64_t prev = bases_[k];
    const std::size_t end = std::min(size() - k * kBlock, kBlock);
    for (std::size_t j = 0; j < end; ++j) {
      prev += decode_varint(p);
      cache.vals[j] = prev;
    }
    cache.chunk_id = id_;
    cache.block = k;
  }
  return cache.vals[i % kBlock];
}

TextChunk TextChunk::encode(std::span<const std::optional<TextRef>> cells) {
  std::vector<TextRef> dict;
  std::vector<std::uint32_t> codes;
  codes.reserve(cells.size());
  // Keys view into the dictionary's interned strings, whose heap storage is
  // stable across dict_ reallocation (TextRef owns a shared string).
  std::unordered_map<std::string_view, std::uint32_t> lookup;
  for (const std::optional<TextRef>& v : cells) {
    if (!v) {
      codes.push_back(kNullCode);
      continue;
    }
    const TextRef& t = *v;
    const auto it = lookup.find(std::string_view(t.str()));
    if (it != lookup.end()) {
      codes.push_back(it->second);
      continue;
    }
    const auto code = static_cast<std::uint32_t>(dict.size());
    dict.push_back(t);
    lookup.emplace(std::string_view(dict.back().str()), code);
    codes.push_back(code);
  }
  dict.shrink_to_fit();
  return TextChunk(std::move(dict), std::move(codes));
}

std::size_t TextChunk::byte_size() const {
  std::size_t n = codes_.capacity() * sizeof(std::uint32_t) +
                  dict_.capacity() * sizeof(TextRef);
  for (const TextRef& t : dict_) n += t.str().capacity();
  return n;
}

}  // namespace mscope::db::segment
