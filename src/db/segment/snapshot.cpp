#include "db/segment/snapshot.h"

#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/crc32c.h"

namespace mscope::db::segment {

namespace {

constexpr char kMagic[4] = {'M', 'S', 'E', 'G'};
constexpr char kFooterMagic[4] = {'M', 'E', 'N', 'D'};
constexpr std::size_t kFooterBytes = 4 + 4;  // "MEND" + u32 file crc

// --- little-endian buffer writers -------------------------------------------

void put_u8(std::string& b, std::uint8_t v) {
  b.push_back(static_cast<char>(v));
}

void put_u32(std::string& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b.push_back(static_cast<char>(v >> (8 * i)));
}

void put_u64(std::string& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b.push_back(static_cast<char>(v >> (8 * i)));
}

void put_string(std::string& b, const std::string& s) {
  put_u32(b, static_cast<std::uint32_t>(s.size()));
  b.append(s);
}

void put_bitmap(std::string& b, const ValidityBitmap& bm) {
  put_u32(b, static_cast<std::uint32_t>(bm.words().size()));
  for (const std::uint64_t w : bm.words()) put_u64(b, w);
}

/// Encodes one chunk body (kind, row count, payload) — identical layout in
/// both format versions; v2 wraps it in a length + CRC32C frame.
void put_chunk(std::string& b, const ColumnChunk& col) {
  const ColumnChunk::Data& d = col.data();
  put_u8(b, static_cast<std::uint8_t>(d.index()));
  put_u64(b, col.size());
  switch (d.index()) {
    case 0:
      break;
    case 1: {
      const auto& c = std::get<IntChunk>(d);
      put_bitmap(b, c.validity());
      put_u64(b, c.bytes().size());
      b.append(reinterpret_cast<const char*>(c.bytes().data()),
               c.bytes().size());
      break;
    }
    case 2: {
      const auto& c = std::get<DoubleChunk>(d);
      put_bitmap(b, c.validity());
      for (const double v : c.values()) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        put_u64(b, bits);
      }
      break;
    }
    default: {
      const auto& c = std::get<TextChunk>(d);
      put_u32(b, static_cast<std::uint32_t>(c.dict().size()));
      for (const TextRef& t : c.dict()) put_string(b, t.str());
      for (const std::uint32_t code : c.codes()) put_u32(b, code);
      break;
    }
  }
}

// --- bounds-checked buffer reader with error context ------------------------

/// Every read is bounds-checked against `limit` (the chunk frame for v2,
/// the file for v1), so a corrupt length field produces a located error
/// instead of a wild allocation or an out-of-bounds read. `table`/`where`
/// name what was being decoded when the failure hit.
struct Reader {
  std::string_view buf;
  std::size_t pos = 0;
  std::size_t limit = 0;  // one past the last readable byte
  std::string table;
  std::string where;

  [[noreturn]] void fail(const std::string& what) const {
    std::string msg =
        "snapshot: " + what + " at byte offset " + std::to_string(pos);
    if (!table.empty()) msg += " in table '" + table + "'";
    if (!where.empty()) msg += " (" + where + ")";
    throw std::runtime_error(msg);
  }

  void need(std::size_t n) const {
    if (n > limit - pos) fail("truncated file");
  }

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(buf[pos++]);
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(buf[pos + i]))
           << (8 * i);
    }
    pos += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(buf[pos + i]))
           << (8 * i);
    }
    pos += 8;
    return v;
  }

  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(buf.substr(pos, n));
    pos += n;
    return s;
  }

  /// A row/element count from the file, validated against the bytes each
  /// element needs so a flipped count cannot drive a huge allocation.
  std::size_t count(std::uint64_t raw, std::size_t bytes_each) {
    if (bytes_each > 0 && raw > (limit - pos) / bytes_each) {
      fail("implausible element count " + std::to_string(raw));
    }
    return static_cast<std::size_t>(raw);
  }
};

ValidityBitmap get_bitmap(Reader& r, std::size_t rows) {
  const std::size_t n = r.count(r.u32(), 8);
  std::vector<std::uint64_t> words(n);
  for (std::size_t i = 0; i < n; ++i) words[i] = r.u64();
  return ValidityBitmap::from_words(std::move(words), rows);
}

ColumnChunk get_chunk(Reader& r) {
  const std::uint8_t kind = r.u8();
  const std::uint64_t raw_rows = r.u64();
  switch (kind) {
    case 0:
      return ColumnChunk(ColumnChunk::Data{
          NullChunk{r.count(raw_rows, 0)}});
    case 1: {
      const auto rows = r.count(raw_rows, 0);
      ValidityBitmap valid = get_bitmap(r, rows);
      const std::size_t nbytes = r.count(r.u64(), 1);
      r.need(nbytes);
      std::vector<std::uint8_t> bytes(nbytes);
      std::memcpy(bytes.data(), r.buf.data() + r.pos, nbytes);
      r.pos += nbytes;
      return ColumnChunk(
          ColumnChunk::Data{IntChunk(std::move(bytes), std::move(valid))});
    }
    case 2: {
      const auto rows = r.count(raw_rows, 0);
      ValidityBitmap valid = get_bitmap(r, rows);
      const std::size_t n = r.count(raw_rows, 8);
      std::vector<double> vals(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t bits = r.u64();
        std::memcpy(&vals[i], &bits, sizeof(double));
      }
      return ColumnChunk(
          ColumnChunk::Data{DoubleChunk(std::move(vals), std::move(valid))});
    }
    case 3: {
      const std::size_t dict_size = r.count(r.u32(), 4);
      std::vector<TextRef> dict;
      dict.reserve(dict_size);
      for (std::size_t i = 0; i < dict_size; ++i) dict.emplace_back(r.str());
      const std::size_t rows = r.count(raw_rows, 4);
      std::vector<std::uint32_t> codes(rows);
      for (std::size_t i = 0; i < rows; ++i) codes[i] = r.u32();
      return ColumnChunk(
          ColumnChunk::Data{TextChunk(std::move(dict), std::move(codes))});
    }
    default:
      r.fail("unknown chunk kind " + std::to_string(kind));
  }
}

/// Reads one v2 chunk frame (u32 len | u32 crc | body), verifying the CRC
/// before decoding and confining the decode to the frame.
ColumnChunk get_framed_chunk(Reader& r) {
  const std::size_t frame_start = r.pos;
  const std::uint32_t len = r.u32();
  const std::uint32_t crc = r.u32();
  r.need(len);
  if (util::Crc32c::of(r.buf.data() + r.pos, len) != crc) {
    r.pos = frame_start;
    r.fail("chunk CRC32C mismatch");
  }
  Reader body{r.buf, r.pos, r.pos + len, r.table, r.where};
  ColumnChunk chunk = get_chunk(body);
  r.pos += len;
  return chunk;
}

/// Reads schema + segments + tail — the shape both versions share. `framed`
/// selects CRC-framed chunks (v2) or bare chunks (v1).
Table read_body(Reader& r, bool framed) {
  const auto next_chunk = [&](Reader& rr) {
    return framed ? get_framed_chunk(rr) : get_chunk(rr);
  };

  std::string name = r.str();
  r.table = name;
  const std::size_t ncols = r.count(r.u32(), 5);  // >= name len + type byte
  Schema schema;
  schema.reserve(ncols);
  std::vector<DataType> types;
  for (std::size_t c = 0; c < ncols; ++c) {
    r.where = "schema column " + std::to_string(c);
    std::string col_name = r.str();
    const auto type = static_cast<DataType>(r.u8());
    schema.push_back({std::move(col_name), type});
    types.push_back(type);
  }
  r.where.clear();

  SegmentStore store(types, std::nullopt);
  const std::size_t nsegs = r.count(r.u32(), 8);
  for (std::size_t s = 0; s < nsegs; ++s) {
    r.where = "segment " + std::to_string(s);
    const std::size_t rows = r.count(r.u64(), 0);
    std::vector<ColumnChunk> cols;
    cols.reserve(ncols);
    for (std::size_t c = 0; c < ncols; ++c) {
      r.where = "segment " + std::to_string(s) + " column " +
                std::to_string(c) + " ('" + schema[c].name + "')";
      cols.push_back(next_chunk(r));
      if (cols.back().size() != rows) {
        r.fail("chunk row count " + std::to_string(cols.back().size()) +
               " does not match segment row count " + std::to_string(rows));
      }
    }
    store.adopt_segment(
        Segment(store.sealed_row_count(), rows, std::move(cols)));
  }

  r.where = "tail";
  const std::size_t tail_rows = r.count(r.u64(), 0);
  if (tail_rows > 0) {
    std::vector<ColumnChunk> cols;
    cols.reserve(ncols);
    for (std::size_t c = 0; c < ncols; ++c) {
      r.where = "tail column " + std::to_string(c) + " ('" + schema[c].name +
                "')";
      cols.push_back(next_chunk(r));
      if (cols.back().size() != tail_rows) {
        r.fail("tail chunk row count mismatch");
      }
      if (cols.back().data().index() !=
          static_cast<std::size_t>(schema[c].type)) {
        r.fail("tail chunk kind does not match the column type");
      }
    }
    store.adopt_tail(
        Segment(store.sealed_row_count(), tail_rows, std::move(cols)));
  }
  // The adopting Table constructor re-detects the anchor column.
  return Table(std::move(name), std::move(schema), std::move(store));
}

}  // namespace

void write_table(std::ostream& out, const Table& table, std::uint8_t version) {
  if (version != 1 && version != 2) {
    throw std::invalid_argument("snapshot: cannot write format version " +
                                std::to_string(version));
  }
  std::string b;
  b.append(kMagic, 4);
  put_u8(b, version);
  put_string(b, table.name());
  put_u32(b, static_cast<std::uint32_t>(table.schema().size()));
  for (const ColumnDef& c : table.schema()) {
    put_string(b, c.name);
    put_u8(b, static_cast<std::uint8_t>(c.type));
  }

  std::string chunk;  // scratch for one chunk body
  const auto emit_chunk = [&](const ColumnChunk& col) {
    chunk.clear();
    put_chunk(chunk, col);
    if (version >= 2) {
      put_u32(b, static_cast<std::uint32_t>(chunk.size()));
      put_u32(b, util::Crc32c::of(chunk));
    }
    b.append(chunk);
  };

  const SegmentStore& store = table.storage();
  put_u32(b, static_cast<std::uint32_t>(store.segments().size()));
  for (const Segment& seg : store.segments()) {
    put_u64(b, seg.row_count());
    for (std::size_t c = 0; c < seg.column_count(); ++c) {
      emit_chunk(seg.column(c));
    }
  }
  // The active tail travels as one chunk-set, encoded with the same codecs
  // a seal would use but without mutating the (const) table.
  const std::size_t tail_rows = store.row_count() - store.sealed_row_count();
  put_u64(b, tail_rows);
  if (tail_rows > 0) {
    const Segment tail = store.encode_tail();
    for (std::size_t c = 0; c < tail.column_count(); ++c) {
      emit_chunk(tail.column(c));
    }
  }
  if (version >= 2) {
    // Footer: whole-file checksum. A truncated write loses the footer, a
    // flipped bit anywhere breaks the checksum — either way the reader
    // refuses before decoding a single cell.
    b.append(kFooterMagic, 4);
    put_u32(b, util::Crc32c::of(b.data(), b.size() - 4));
  }
  out.write(b.data(), static_cast<std::streamsize>(b.size()));
  if (!out) throw std::runtime_error("snapshot: write failed");
}

Table read_table(std::istream& in) {
  std::string buf;
  {
    std::ostringstream ss;
    ss << in.rdbuf();
    buf = ss.str();
  }
  Reader r{buf, 0, buf.size(), {}, {}};
  r.need(5);
  if (std::memcmp(buf.data(), kMagic, 4) != 0) {
    r.fail("bad magic");
  }
  r.pos = 4;
  const std::uint8_t version = r.u8();
  if (version == 1) {
    return read_body(r, /*framed=*/false);
  }
  if (version != kSnapshotVersion) {
    r.fail("unsupported format version " + std::to_string(version));
  }
  // v2: verify completeness + integrity up front. The footer must be
  // present (else the write was torn) and the file checksum must match
  // (else some bit, anywhere, changed).
  if (buf.size() < 5 + kFooterBytes ||
      std::memcmp(buf.data() + buf.size() - kFooterBytes, kFooterMagic, 4) !=
          0) {
    r.pos = buf.size();
    r.fail("missing footer (torn or truncated write)");
  }
  Reader footer{buf, buf.size() - 4, buf.size(), {}, {}};
  const std::uint32_t file_crc = footer.u32();
  // The footer CRC covers the body — everything before the "MEND" magic.
  if (util::Crc32c::of(buf.data(), buf.size() - kFooterBytes) != file_crc) {
    r.pos = buf.size() - 4;
    r.fail("file CRC32C mismatch (corrupt snapshot)");
  }
  r.limit = buf.size() - kFooterBytes;  // body ends where the footer starts
  return read_body(r, /*framed=*/true);
}

}  // namespace mscope::db::segment
