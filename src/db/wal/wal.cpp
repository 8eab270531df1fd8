#include "db/wal/wal.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "util/crc32c.h"

namespace mscope::db::wal {

namespace {

constexpr char kMagic[4] = {'M', 'W', 'A', 'L'};
constexpr std::size_t kHeaderBytes = 4 + 1 + 8;
constexpr std::size_t kFrameHeaderBytes = 8;  // u32 len + u32 crc
constexpr std::uint32_t kMaxFrameBytes = 1u << 30;

enum class RecordType : std::uint8_t {
  kCreateTable = 1,
  kDropTable = 2,
  kWiden = 3,
  kInsert = 4,  ///< version 1 only: one boxed row
  kCommit = 5,
  kRows = 6,  ///< a column range (see wal.h)
};

// --- payload encoding (little-endian, append to a string buffer) -----------

void store_u32(char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>(v >> (8 * i));
}

void store_u64(char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>(v >> (8 * i));
}

std::uint64_t bits_of(double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

void put_u8(std::string& b, std::uint8_t v) {
  b.push_back(static_cast<char>(v));
}

void put_u32(std::string& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b.push_back(static_cast<char>((v >> (8 * i))));
}

void put_u64(std::string& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b.push_back(static_cast<char>((v >> (8 * i))));
}

/// Appends n values of 8 bytes each, value(i) for i in [0, n).
template <class F>
void put_u64s(std::string& b, std::size_t n, F&& value) {
  const std::size_t at = b.size();
  b.resize(at + 8 * n);
  char* p = b.data() + at;
  for (std::size_t i = 0; i < n; ++i, p += 8) store_u64(p, value(i));
}

void put_string(std::string& b, std::string_view s) {
  put_u32(b, static_cast<std::uint32_t>(s.size()));
  b.append(s);
}

void put_schema(std::string& b, const Schema& schema) {
  put_u32(b, static_cast<std::uint32_t>(schema.size()));
  for (const ColumnDef& c : schema) {
    put_string(b, c.name);
    put_u8(b, static_cast<std::uint8_t>(c.type));
  }
}

// --- payload decoding (bounds-checked) --------------------------------------

struct DecodeError {};

struct Cursor {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (pos + n > size) throw DecodeError{};
  }
  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data[pos++]);
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data[pos + i]))
           << (8 * i);
    }
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    const std::uint64_t v = u64_at(0);
    pos += 8;
    return v;
  }
  std::string_view view() {
    const std::uint32_t n = u32();
    need(n);
    const std::string_view s(data + pos, n);
    pos += n;
    return s;
  }
  std::string str() { return std::string(view()); }
  std::uint64_t u64_at(std::size_t i) const {
    std::uint64_t v = 0;
    for (int k = 0; k < 8; ++k) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(data[pos + 8 * i + k]))
           << (8 * k);
    }
    return v;
  }
  Schema schema() {
    const std::uint32_t n = u32();
    Schema s;
    s.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::string name = str();
      s.push_back({std::move(name), static_cast<DataType>(u8())});
    }
    return s;
  }
  Value value() {
    switch (static_cast<DataType>(u8())) {
      case DataType::kNull:
        return Value{};
      case DataType::kInt:
        return Value{static_cast<std::int64_t>(u64())};
      case DataType::kDouble: {
        const std::uint64_t bits = u64();
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        return Value{d};
      }
      case DataType::kText:
        return Value{TextRef(str())};
      default:
        throw DecodeError{};
    }
  }
  /// A rows body's columns (`rows` rows each) into `b`, reusing its arrays;
  /// `dict` is scratch for a Text column's dictionary.
  void columns(ColumnBatch& b, std::uint32_t rows, std::vector<TextRef>& dict) {
    const std::uint32_t ncols = u32();
    need(ncols);  // every column takes at least its type byte
    b.rows = rows;
    b.columns.resize(ncols);
    for (ColumnBatch::Column& col : b.columns) {
      const std::uint8_t type = u8();
      if (type > static_cast<std::uint8_t>(DataType::kText)) throw DecodeError{};
      col.clear();
      col.type = static_cast<DataType>(type);
      need((std::size_t{rows} + 7) / 8);
      col.valid.resize(rows);
      for (std::size_t i = 0; i < rows; ++i) {
        col.valid[i] = static_cast<std::uint8_t>(
            (static_cast<std::uint8_t>(data[pos + i / 8]) >> (i % 8)) & 1);
      }
      pos += (std::size_t{rows} + 7) / 8;
      switch (col.type) {
        case DataType::kInt:
          need(8 * std::size_t{rows});
          col.ints.resize(rows);
          for (std::size_t i = 0; i < rows; ++i) {
            col.ints[i] = static_cast<std::int64_t>(u64_at(i));
          }
          pos += 8 * std::size_t{rows};
          break;
        case DataType::kDouble:
          need(8 * std::size_t{rows});
          col.doubles.resize(rows);
          for (std::size_t i = 0; i < rows; ++i) {
            const std::uint64_t bits = u64_at(i);
            std::memcpy(&col.doubles[i], &bits, sizeof(bits));
          }
          pos += 8 * std::size_t{rows};
          break;
        case DataType::kText: {
          const std::uint32_t n = u32();
          need(4 * std::size_t{n});  // every entry takes its length prefix
          dict.clear();
          dict.reserve(n);
          // One private string per distinct value of the frame: no pool
          // lock per cell.
          for (std::uint32_t k = 0; k < n; ++k) {
            dict.emplace_back(TextRef::Unpooled{}, view());
          }
          col.texts.resize(rows);
          for (std::size_t i = 0; i < rows; ++i) {
            const std::uint32_t code = u32();
            if (col.valid[i] == 0) continue;
            if (code >= n) throw DecodeError{};
            col.texts[i] = dict[code];
          }
          break;
        }
        case DataType::kNull:
          break;
      }
    }
  }
};

/// True when `narrow` is a name-preserving prefix of the table's current
/// schema — i.e. the widening recorded in the log has already been applied
/// (mixed-generation replay over a newer snapshot).
bool already_widened(const Table& t, const Schema& logged) {
  if (logged.size() > t.schema().size()) return false;
  for (std::size_t i = 0; i < logged.size(); ++i) {
    if (logged[i].name != t.schema()[i].name) return false;
  }
  return true;
}

}  // namespace

// --- WalWriter ---------------------------------------------------------------

WalWriter::WalWriter(std::filesystem::path path, std::uint64_t base_commit_id,
                     bool append)
    : path_(std::move(path)), commit_id_(base_commit_id) {
  if (append && std::filesystem::exists(path_)) {
    char header[5] = {};
    std::ifstream in(path_, std::ios::binary);
    in.read(header, sizeof(header));
    if (in.gcount() != sizeof(header) ||
        std::memcmp(header, kMagic, 4) != 0 ||
        static_cast<std::uint8_t>(header[4]) != kWalVersion) {
      throw std::runtime_error("wal: cannot resume " + path_.string() +
                               ": not a version " +
                               std::to_string(kWalVersion) + " log");
    }
    file_.open_append(path_);
  } else {
    file_.open(path_);
    write_header(file_, base_commit_id);
  }
}

WalWriter::~WalWriter() { file_.close_quiet(); }

void WalWriter::write_header(util::io::File& f, std::uint64_t base_commit_id) {
  std::string h(kMagic, 4);
  h.push_back(static_cast<char>(kWalVersion));
  put_u64(h, base_commit_id);
  f.write(h);
  stats_.bytes += h.size();
}

void WalWriter::begin_frame(std::uint8_t type) {
  buf_.assign(kFrameHeaderBytes, '\0');  // length and CRC, patched at the end
  put_u8(buf_, type);
}

void WalWriter::write_frame() {
  const std::size_t len = buf_.size() - kFrameHeaderBytes;
  store_u32(buf_.data(), static_cast<std::uint32_t>(len));
  store_u32(buf_.data() + 4,
            util::Crc32c::of(buf_.data() + kFrameHeaderBytes, len));
  // One io::File::write per frame: every frame boundary is a crash point
  // the fault-injection matrix can kill at (including mid-frame via a
  // torn-write decision).
  file_.write(buf_);
  stats_.bytes += buf_.size();
  static obs::Counter& frames_c =
      obs::Registry::global().counter("db.wal.frames");
  static obs::Counter& bytes_c =
      obs::Registry::global().counter("db.wal.bytes");
  frames_c.inc();
  bytes_c.add(buf_.size());
}

void WalWriter::journal_frame() {
  write_frame();
  ++stats_.frames;
  dirty_ = true;
}

void WalWriter::on_create_table(const std::string& name, const Schema& schema) {
  begin_frame(static_cast<std::uint8_t>(RecordType::kCreateTable));
  put_string(buf_, name);
  put_schema(buf_, schema);
  journal_frame();
}

void WalWriter::on_drop_table(const std::string& name) {
  begin_frame(static_cast<std::uint8_t>(RecordType::kDropTable));
  put_string(buf_, name);
  journal_frame();
}

void WalWriter::on_append(const std::string& table, const Schema& schema,
                          std::size_t row_index, const ColumnBatch& batch,
                          std::size_t first, std::size_t end) {
  // Every frame of the range lands before Table::append lets a row land.
  for (std::size_t r = first; r < end; r += kMaxFrameRows) {
    const std::size_t stop = std::min(end, r + kMaxFrameRows);
    begin_frame(static_cast<std::uint8_t>(RecordType::kRows));
    put_string(buf_, table);
    put_u64(buf_, row_index + (r - first));
    put_u32(buf_, static_cast<std::uint32_t>(stop - r));
    put_u32(buf_, static_cast<std::uint32_t>(schema.size()));
    for (std::size_t c = 0; c < schema.size(); ++c) {
      put_column(schema[c].type, batch.columns[c], r, stop);
    }
    journal_frame();
  }
}

void WalWriter::put_column(DataType type, const ColumnBatch::Column& src,
                           std::size_t first, std::size_t end) {
  const std::size_t n = end - first;
  const auto valid = [&](std::size_t i) {
    return type != DataType::kNull && src.valid[first + i] != 0;
  };
  put_u8(buf_, static_cast<std::uint8_t>(type));
  const std::size_t at = buf_.size();
  buf_.resize(at + (n + 7) / 8, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    if (valid(i)) buf_[at + i / 8] |= static_cast<char>(1u << (i % 8));
  }
  switch (type) {
    case DataType::kInt:
      put_u64s(buf_, n, [&](std::size_t i) {
        return valid(i) ? static_cast<std::uint64_t>(src.ints[first + i])
                        : std::uint64_t{0};
      });
      break;
    case DataType::kDouble:
      put_u64s(buf_, n, [&](std::size_t i) {
        if (!valid(i)) return std::uint64_t{0};
        return bits_of(src.type == DataType::kInt
                           ? static_cast<double>(src.ints[first + i])
                           : src.doubles[first + i]);
      });
      break;
    case DataType::kText: {
      // The frame's dictionary in first-use order; a cell sharing the
      // previous cell's string skips the lookup.
      codes_.assign(n, 0);
      dict_.clear();
      lookup_.clear();
      const TextRef* prev = nullptr;
      std::uint32_t prev_code = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (!valid(i)) continue;
        const TextRef& t = *src.texts[first + i];
        if (prev == nullptr || !t.same_ref(*prev)) {
          const auto [it, added] = lookup_.try_emplace(
              std::string_view(t.str()),
              static_cast<std::uint32_t>(dict_.size()));
          if (added) dict_.push_back(it->first);
          prev = &t;
          prev_code = it->second;
        }
        codes_[i] = prev_code;
      }
      put_u32(buf_, static_cast<std::uint32_t>(dict_.size()));
      for (const std::string_view s : dict_) put_string(buf_, s);
      const std::size_t codes_at = buf_.size();
      buf_.resize(codes_at + 4 * n);
      for (std::size_t i = 0; i < n; ++i) {
        store_u32(buf_.data() + codes_at + 4 * i, codes_[i]);
      }
      break;
    }
    case DataType::kNull:
      break;
  }
}

void WalWriter::on_widen(const std::string& table, const Schema& wider) {
  begin_frame(static_cast<std::uint8_t>(RecordType::kWiden));
  put_string(buf_, table);
  put_schema(buf_, wider);
  journal_frame();
}

std::uint64_t WalWriter::commit() {
  if (!dirty_) return commit_id_;
  ++commit_id_;
  begin_frame(static_cast<std::uint8_t>(RecordType::kCommit));
  put_u64(buf_, commit_id_);
  write_frame();
  // The flush is the WAL's durability point — its host-side latency is the
  // "fsync cost" a deployment would pay per commit.
  const auto t0 = std::chrono::steady_clock::now();
  file_.flush();
  const auto dt = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  static obs::Counter& commits_c =
      obs::Registry::global().counter("db.wal.commits");
  static obs::Histogram& fsync_h =
      obs::Registry::global().histogram("db.wal.fsync_usec");
  commits_c.inc();
  fsync_h.record(dt);
  ++stats_.commits;
  dirty_ = false;
  return commit_id_;
}

void WalWriter::reset() {
  file_.close();
  const std::filesystem::path tmp = path_.string() + ".tmp";
  {
    util::io::File fresh;
    fresh.open(tmp);
    write_header(fresh, commit_id_);
    fresh.close();
  }
  util::io::File::rename_file(tmp, path_);
  file_.open_append(path_);
  dirty_ = false;
}

// --- replay ------------------------------------------------------------------

ReplayStats replay(const std::filesystem::path& path, Database& db) {
  ReplayStats stats;
  // Every replay anomaly lands in stats.warnings (the API surface) *and* on
  // the leveled log, so interactive runs see it without plumbing the stats.
  const auto warn = [&stats](std::string msg) {
    obs::Log::warn(msg);
    stats.warnings.push_back(std::move(msg));
  };
  std::string buf;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) return stats;  // no log: nothing since the snapshot
    const std::streamoff size = in.tellg();
    buf.resize(size > 0 ? static_cast<std::size_t>(size) : 0);
    in.seekg(0);
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.resize(static_cast<std::size_t>(std::max<std::streamsize>(
        0, in.gcount())));  // a short read bounds the log like a torn tail
  }
  const std::uint8_t version =
      buf.size() > 4 ? static_cast<std::uint8_t>(buf[4]) : 0;
  if (buf.size() < kHeaderBytes || std::memcmp(buf.data(), kMagic, 4) != 0 ||
      (version != 1 && version != kWalVersion)) {
    warn("wal: bad or truncated header in " +
                             path.string() + " — log ignored");
    return stats;
  }
  {
    Cursor c{buf.data(), buf.size(), 5};
    stats.last_commit_id = c.u64();
  }
  stats.durable_bytes = kHeaderBytes;

  // Pass 1: walk frames, validating length prefix and CRC, to find the last
  // valid commit marker. The first bad frame is the torn tail — everything
  // from there on (and any valid-but-uncommitted frames before it) is
  // discarded, never applied.
  struct FrameRef {
    std::size_t payload_pos;
    std::uint32_t len;
    RecordType type;
  };
  std::vector<FrameRef> frames;
  std::size_t last_commit_end = 0;  // frame count at the last commit
  std::uint64_t last_commit_id = stats.last_commit_id;
  std::size_t pos = kHeaderBytes;
  while (pos + kFrameHeaderBytes <= buf.size()) {
    Cursor c{buf.data(), buf.size(), pos};
    const std::uint32_t len = c.u32();
    const std::uint32_t crc = c.u32();
    if (len == 0 || len > kMaxFrameBytes ||
        pos + kFrameHeaderBytes + len > buf.size()) {
      break;  // torn length or payload
    }
    const char* payload = buf.data() + pos + kFrameHeaderBytes;
    if (util::Crc32c::of(payload, len) != crc) break;  // bit flip / torn
    const auto type = static_cast<RecordType>(
        static_cast<std::uint8_t>(payload[0]));
    frames.push_back({pos + kFrameHeaderBytes, len, type});
    pos += kFrameHeaderBytes + len;
    if (type == RecordType::kCommit && len == 9) {
      Cursor cc{buf.data(), buf.size(), frames.back().payload_pos + 1};
      last_commit_id = cc.u64();
      last_commit_end = frames.size();
      stats.durable_bytes = pos;
      ++stats.commits_seen;
    }
  }
  stats.last_commit_id = last_commit_id;
  stats.torn_bytes = buf.size() - stats.durable_bytes;
  stats.frames_discarded = frames.size() - last_commit_end;
  if (stats.torn_bytes > 0 && pos < buf.size()) {
    warn("wal: torn tail at byte offset " +
                             std::to_string(pos) + " (" +
                             std::to_string(buf.size() - pos) +
                             " bytes truncated)");
  }

  // Pass 2: apply the committed prefix. A journal attached to `db` is
  // suspended for the duration — replaying must not re-journal.
  MutationJournal* suspended = db.journal();
  db.set_journal(nullptr);
  // Tables whose replay went inconsistent (snapshot lost, gap in row ids):
  // skip their remaining records instead of aborting the whole warehouse.
  std::vector<std::string> broken;
  const auto is_broken = [&](const std::string& t) {
    for (const auto& b : broken) {
      if (b == t) return true;
    }
    return false;
  };
  const auto resumes_past = [&](const std::string& name, std::size_t first,
                                std::size_t have) {
    warn("wal: log resumes at row " + std::to_string(first) + " of '" +
         name + "' but only " + std::to_string(have) +
         " rows are present — table skipped");
    broken.push_back(name);
  };
  ColumnBatch batch;  // a rows frame's columns, arrays reused frame to frame
  std::vector<TextRef> dict;
  for (std::size_t fi = 0; fi < last_commit_end; ++fi) {
    const FrameRef& f = frames[fi];
    Cursor c{buf.data(), buf.size(), f.payload_pos + 1};
    try {
      switch (f.type) {
        case RecordType::kCreateTable: {
          const std::string name = c.str();
          Schema schema = c.schema();
          if (!db.exists(name)) db.create_table(name, std::move(schema));
          break;
        }
        case RecordType::kDropTable: {
          const std::string name = c.str();
          db.drop(name);
          // A recreate after the drop starts the table afresh.
          std::erase(broken, name);
          break;
        }
        case RecordType::kWiden: {
          const std::string name = c.str();
          const Schema wider = c.schema();
          Table* t = db.find(name);
          if (t == nullptr) {
            if (!is_broken(name)) {
              warn("wal: widen of missing table '" + name +
                                       "' — table skipped");
              broken.push_back(name);
            }
            break;
          }
          if (!t->try_widen(wider) && !already_widened(*t, wider)) {
            warn("wal: widening of '" + name +
                                     "' no longer applies — table skipped");
            broken.push_back(name);
          }
          break;
        }
        case RecordType::kInsert: {
          const std::string name = c.str();
          const auto row_index = static_cast<std::size_t>(c.u64());
          const std::uint32_t arity = c.u32();
          Table::Row row;
          row.reserve(arity);
          for (std::uint32_t i = 0; i < arity; ++i) row.push_back(c.value());
          if (is_broken(name)) break;
          Table* t = db.find(name);
          if (t == nullptr) {
            warn("wal: insert into missing table '" +
                                     name + "' — table skipped");
            broken.push_back(name);
            break;
          }
          if (row_index < t->row_count()) {
            ++stats.inserts_skipped;  // already in the snapshot (idempotent)
            break;
          }
          if (row_index > t->row_count()) {
            resumes_past(name, row_index, t->row_count());
            break;
          }
          t->insert(std::move(row));
          ++stats.inserts_applied;
          break;
        }
        case RecordType::kRows: {
          const std::string name = c.str();
          const auto first = static_cast<std::size_t>(c.u64());
          const std::uint32_t rows = c.u32();
          c.columns(batch, rows, dict);
          if (is_broken(name)) break;
          Table* t = db.find(name);
          if (t == nullptr) {
            warn("wal: append to missing table '" + name +
                 "' — table skipped");
            broken.push_back(name);
            break;
          }
          // Idempotent by row index: only the rows from row_count() on are
          // missing.
          const std::size_t have = t->row_count();
          if (first > have) {
            resumes_past(name, first, have);
            break;
          }
          const std::size_t skip = std::min<std::size_t>(have - first, rows);
          if (skip == rows) {
            stats.inserts_skipped += rows;  // already in the snapshot
            break;
          }
          t->append(batch, skip, rows);
          stats.inserts_skipped += skip;
          stats.inserts_applied += rows - skip;
          break;
        }
        case RecordType::kCommit:
          break;
        default:
          // Unknown but CRC-valid record: a newer writer; skip it.
          break;
      }
    } catch (const DecodeError&) {
      warn("wal: malformed frame at byte offset " +
                               std::to_string(f.payload_pos) +
                               " — replay stopped");
      break;
    } catch (const std::exception& e) {
      warn("wal: replay error at byte offset " +
                               std::to_string(f.payload_pos) + ": " +
                               e.what());
    }
    if (f.type != RecordType::kCommit) ++stats.frames_applied;
  }
  db.set_journal(suspended);
  return stats;
}

}  // namespace mscope::db::wal
