#include "src/dataset/format_internal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>

#include "src/util/check.h"

namespace linbp {
namespace dataset {
namespace internal {
namespace {

// Odd, so the multiply is a bijection mod 2^64 (the 64-bit golden ratio).
constexpr std::uint64_t kChecksumMultiplier = 0x9e3779b97f4a7c15ull;
// Distinct lane seeds, so equal words in different lanes diverge.
constexpr std::uint64_t kChecksumSeeds[4] = {
    0x243f6a8885a308d3ull, 0x13198a2e03707344ull, 0xa4093822299f31d0ull,
    0x082efa98ec4e6c89ull};

// A little-endian 8-byte word; compilers fold the shifts into one load
// on little-endian targets.
inline std::uint64_t LoadLe64(const unsigned char* p) {
  return std::uint64_t{p[0]} | std::uint64_t{p[1]} << 8 |
         std::uint64_t{p[2]} << 16 | std::uint64_t{p[3]} << 24 |
         std::uint64_t{p[4]} << 32 | std::uint64_t{p[5]} << 40 |
         std::uint64_t{p[6]} << 48 | std::uint64_t{p[7]} << 56;
}

inline std::uint64_t AbsorbWord(std::uint64_t lane, std::uint64_t word) {
  lane = (lane ^ word) * kChecksumMultiplier;
  return lane ^ (lane >> 29);
}

// murmur3's 64-bit finalizer (a bijection).
inline std::uint64_t Fmix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  return h ^ (h >> 33);
}

}  // namespace

std::uint64_t PayloadChecksum(const char* data, std::size_t size) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  const std::size_t words = size / 8;
  std::uint64_t a = kChecksumSeeds[0];
  std::uint64_t b = kChecksumSeeds[1];
  std::uint64_t c = kChecksumSeeds[2];
  std::uint64_t d = kChecksumSeeds[3];
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4, p += 32) {
    a = AbsorbWord(a, LoadLe64(p));
    b = AbsorbWord(b, LoadLe64(p + 8));
    c = AbsorbWord(c, LoadLe64(p + 16));
    d = AbsorbWord(d, LoadLe64(p + 24));
  }
  std::uint64_t lanes[4] = {a, b, c, d};
  for (; w < words; ++w, p += 8) {
    lanes[w % 4] = AbsorbWord(lanes[w % 4], LoadLe64(p));
  }
  if (const std::size_t tail = size % 8; tail > 0) {
    std::uint64_t last = 0;
    for (std::size_t i = 0; i < tail; ++i) {
      last |= std::uint64_t{p[i]} << (8 * i);
    }
    lanes[w % 4] = AbsorbWord(lanes[w % 4], last);
  }
  std::uint64_t h = static_cast<std::uint64_t>(size);
  for (const std::uint64_t lane : lanes) h = Fmix64(h ^ lane);
  return h;
}

void AppendString(const std::string& s, std::vector<char>* out) {
  const std::uint32_t length = static_cast<std::uint32_t>(s.size());
  AppendPod(&length, 1, out);
  AppendPod(s.data(), s.size(), out);
}

std::string OversizedFileError(const std::string& path, std::uint64_t size,
                               std::uint64_t expected) {
  return path + ": oversized file (" + std::to_string(size) +
         " bytes, expected " + std::to_string(expected) + ")";
}

namespace {

// Opens `path` read-only and checks that it is a regular file. Returns
// the descriptor and fills *size, or returns -1 with *error filled.
int OpenRegularFile(const std::string& path, std::uint64_t* size,
                    std::string* error) {
  // O_NONBLOCK: opening a FIFO must not wait for a writer before the
  // regular-file check rejects it (regular-file reads ignore the flag).
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
  struct stat st {};
  if (fd < 0 || ::fstat(fd, &st) != 0) {
    if (fd >= 0) ::close(fd);
    *error = path + ": cannot open";
    return -1;
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    *error = path + ": not a regular file";
    return -1;
  }
  *size = static_cast<std::uint64_t>(st.st_size);
  return fd;
}

}  // namespace

bool ReadFileRange(const std::string& path, std::uint64_t offset,
                   std::uint64_t length, std::uint64_t max_file_bytes,
                   std::vector<char>* out, std::uint64_t* file_bytes,
                   std::string* error) {
  const int fd = OpenRegularFile(path, file_bytes, error);
  if (fd < 0) return false;
  if (*file_bytes > max_file_bytes) {
    ::close(fd);
    *error = OversizedFileError(path, *file_bytes, max_file_bytes);
    return false;
  }
  const std::uint64_t available =
      offset < *file_bytes ? *file_bytes - offset : 0;
  // Growing within capacity neither allocates nor faults in new pages,
  // and shrinking is free, so a reused buffer costs only the read.
  out->resize(static_cast<std::size_t>(std::min(length, available)));
  std::size_t done = 0;
  while (done < out->size()) {
    const ssize_t got =
        ::pread(fd, out->data() + done, out->size() - done,
                static_cast<off_t>(offset + done));
    if (got > 0) {
      done += static_cast<std::size_t>(got);
    } else if (got == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fd);
  // Fewer bytes than the size promised: the file shrank under us, or an
  // I/O error.
  if (done != out->size()) {
    *error = path + ": read failed";
    return false;
  }
  return true;
}

bool WriteFileDurably(const std::string& path, const std::vector<char>& bytes,
                      std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    *error = path + ": cannot write";
    return false;
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  // ofstream buffers: a disk-full failure may only surface when the
  // buffer drains, so flush and re-check before declaring success.
  out.flush();
  if (!out) {
    *error = path + ": write failed";
    return false;
  }
  out.close();
  if (out.fail()) {
    *error = path + ": close failed";
    return false;
  }
  return true;
}

bool CheckCouplingResidual(const std::string& path,
                           const std::vector<double>& coupling,
                           std::int64_t k, std::string* error) {
  LINBP_CHECK(static_cast<std::int64_t>(coupling.size()) == k * k);
  for (std::int64_t i = 0; i < k; ++i) {
    double row_sum = 0.0;
    for (std::int64_t j = 0; j < k; ++j) {
      const double value = coupling[i * k + j];
      if (!std::isfinite(value) || value != coupling[j * k + i]) {
        *error = path + ": invalid coupling residual";
        return false;
      }
      row_sum += value;
    }
    if (std::abs(row_sum) > 1e-9) {
      *error = path + ": invalid coupling residual";
      return false;
    }
  }
  return true;
}

std::int64_t ShardDecodedPayloadBytes(std::int64_t rows, std::int64_t nnz,
                                      std::int64_t num_explicit,
                                      std::int64_t k, bool has_ground_truth,
                                      std::int64_t value_bytes) {
  return (rows + 1) * 8 + nnz * (4 + value_bytes) +
         num_explicit * 8 * (1 + k) + (has_ground_truth ? rows * 4 : 0);
}

void AppendVarint(std::uint64_t value, std::vector<char>* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

void EncodeColumnSection(const std::int64_t* local_row_ptr, std::int64_t rows,
                         const std::int32_t* col_idx,
                         std::vector<char>* out) {
  // The byte count and the table are filled in once the varints are out.
  const std::int64_t groups = RowGroupCount(rows);
  const std::size_t section = out->size();
  const std::size_t varints =
      section + 8 + 16 * static_cast<std::size_t>(groups);
  out->resize(varints);
  for (std::int64_t g = 0; g < groups; ++g) {
    const std::int64_t row_end = std::min(rows, (g + 1) * kRowGroupRows);
    for (std::int64_t r = g * kRowGroupRows; r < row_end; ++r) {
      const std::int64_t begin = local_row_ptr[r];
      const std::int64_t end = local_row_ptr[r + 1];
      AppendVarint(static_cast<std::uint64_t>(end - begin), out);
      std::int64_t prev = 0;
      for (std::int64_t e = begin; e < end; ++e) {
        const std::int64_t col = col_idx[e];
        // First id raw, then strictly positive deltas (columns are sorted
        // and duplicate-free per row, so col > prev always holds here).
        AppendVarint(
            static_cast<std::uint64_t>(e == begin ? col : col - prev), out);
        prev = col;
      }
    }
    const std::uint64_t pair[2] = {
        static_cast<std::uint64_t>(out->size() - varints),
        static_cast<std::uint64_t>(local_row_ptr[row_end])};
    std::memcpy(out->data() + section + 8 + 16 * g, pair, 16);
  }
  const std::uint64_t varint_bytes = out->size() - varints;
  std::memcpy(out->data() + section, &varint_bytes, 8);
}

namespace {

// One bounds-checked LEB128 read; returns the defect, or nullptr. A
// valid value fits int32, so anything longer than 5 bytes is corrupt
// regardless of its numeric value.
const char* ReadVarint(const char** data, const char* end,
                       std::uint64_t* value) {
  *value = 0;
  for (int shift = 0; shift < 5 * 7; shift += 7) {
    if (*data == end) return "truncated varint";
    const std::uint8_t byte = static_cast<std::uint8_t>(*(*data)++);
    *value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return nullptr;
  }
  return "varint overflow (more than 5 bytes)";
}

// Decodes one row group's varints [data, data + size) into the local
// row_ptr entries of rows [row_begin, row_end) (row_ptr[r + 1] for each
// local row r) and the column ids [entry_begin, entry_end); local row r
// is global row first_row + r. Returns the defect, or nullptr: truncated
// or over-long (> 5 byte) varints, column ids outside [0, num_nodes),
// zero deltas (equal or decreasing columns), a row listing itself, row
// entry counts that overrun or fall short of the group's entries, and
// trailing group bytes.
const char* DecodeRowGroup(const char* data, std::size_t size,
                           std::int64_t first_row, std::int64_t row_begin,
                           std::int64_t row_end, std::int64_t entry_begin,
                           std::int64_t entry_end, std::int64_t num_nodes,
                           std::int64_t* local_row_ptr,
                           std::int32_t* col_idx) {
  const char* end = data + size;
  std::int64_t written = entry_begin;
  for (std::int64_t r = row_begin; r < row_end; ++r) {
    std::uint64_t row_nnz = 0;
    if (const char* what = ReadVarint(&data, end, &row_nnz)) return what;
    if (row_nnz > static_cast<std::uint64_t>(entry_end - written)) {
      return "row entry counts exceed the row group's entries";
    }
    const std::int64_t row = first_row + r;
    std::int64_t col = 0;
    for (std::uint64_t e = 0; e < row_nnz; ++e) {
      std::uint64_t delta = 0;
      if (const char* what = ReadVarint(&data, end, &delta)) return what;
      if (e > 0 && delta == 0) {
        return "non-monotone delta (columns not strictly increasing)";
      }
      col = e == 0 ? static_cast<std::int64_t>(delta)
                   : col + static_cast<std::int64_t>(delta);
      if (col >= num_nodes) return "column id out of range";
      if (col == row) return "self-loop";
      col_idx[written++] = static_cast<std::int32_t>(col);
    }
    local_row_ptr[r + 1] = written;
  }
  if (written != entry_end) {
    return "row entry counts fall short of the row group's entries";
  }
  if (data != end) return "trailing bytes in the column section";
  return nullptr;
}

// Copies `count` little-endian `Stored` values from `data` into `out`,
// converted to `Out`. Returns false if any is NaN or infinite (`out` is
// then partly written).
template <typename Stored, typename Out>
bool CopyFiniteValues(const char* data, std::size_t count, Out* out) {
  bool finite = true;
  for (std::size_t i = 0; i < count; ++i) {
    Stored value;
    std::memcpy(&value, data + i * sizeof(Stored), sizeof(Stored));
    // value - value is 0 for finite values and NaN for NaN or infinite
    // ones, so the check needs no branch and the loop vectorizes.
    finite &= (value - value) == Stored(0);
    out[i] = static_cast<Out>(value);
  }
  return finite;
}

// Pair g of a row-group table: where group g's varints and entries end.
struct RowGroupEnds {
  std::uint64_t bytes = 0;
  std::uint64_t entries = 0;
};

RowGroupEnds ReadRowGroupEnds(const char* table, std::int64_t g) {
  RowGroupEnds ends;
  std::memcpy(&ends.bytes, table + 16 * g, 8);
  std::memcpy(&ends.entries, table + 16 * g + 8, 8);
  return ends;
}

// The whole table, before any group runs: returns the defect, or nullptr.
const char* CheckRowGroupTable(const char* table, std::int64_t groups,
                               std::uint64_t varint_bytes,
                               std::uint64_t nnz) {
  RowGroupEnds previous;
  for (std::int64_t g = 0; g < groups; ++g) {
    const RowGroupEnds ends = ReadRowGroupEnds(table, g);
    if (ends.bytes < previous.bytes) return "byte ends decrease";
    if (ends.entries < previous.entries) return "entry ends decrease";
    if (ends.bytes > varint_bytes) return "byte end past the section";
    if (ends.entries > nnz) return "entry end past the header nnz";
    previous = ends;
  }
  if (previous.bytes != varint_bytes) {
    return "last byte end short of the section end";
  }
  if (previous.entries != nnz) return "last entry end short of the header nnz";
  return nullptr;
}

constexpr char kNonFiniteWeight[] = "non-finite weight";

// One compressed shard's row groups over a checked table: Decode(g)
// fills group g's rows, entries and values, touching nothing another
// group writes.
template <typename Value>
struct RowGroupDecoder {
  const char* table;
  const char* varints;
  const char* stored;  // the value section; unused for unit weights
  bool values_f32;
  bool unit_weights;  // no value section, `values` null
  std::int64_t rows;
  std::int64_t first_row;  // global id of local row 0
  std::int64_t num_nodes;
  std::int64_t* local_row_ptr;
  std::int32_t* col_idx;
  Value* values;

  // Returns the defect (kNonFiniteWeight for the value slice), or nullptr.
  const char* Decode(std::int64_t g) const {
    const RowGroupEnds begin =
        g == 0 ? RowGroupEnds() : ReadRowGroupEnds(table, g - 1);
    const RowGroupEnds end = ReadRowGroupEnds(table, g);
    const std::int64_t entry_begin = static_cast<std::int64_t>(begin.entries);
    const std::int64_t entry_end = static_cast<std::int64_t>(end.entries);
    if (const char* what = DecodeRowGroup(
            varints + begin.bytes, end.bytes - begin.bytes, first_row,
            g * kRowGroupRows, std::min(rows, (g + 1) * kRowGroupRows),
            entry_begin, entry_end, num_nodes, local_row_ptr, col_idx)) {
      return what;
    }
    if (unit_weights) return nullptr;
    const std::size_t count = static_cast<std::size_t>(entry_end - entry_begin);
    const bool finite =
        values_f32 ? CopyFiniteValues<float>(
                         stored + entry_begin * sizeof(float), count,
                         values + entry_begin)
                   : CopyFiniteValues<double>(
                         stored + entry_begin * sizeof(double), count,
                         values + entry_begin);
    return finite ? nullptr : kNonFiniteWeight;
  }
};

}  // namespace

template <typename Value>
bool DecodeCompressedCsr(const std::string& path,
                         const ShardManifest& manifest,
                         const ShardFileHeader& h,
                         const exec::ExecContext& ctx, const char** payload,
                         std::size_t* payload_size,
                         std::int64_t* local_row_ptr, std::int32_t* col_idx,
                         Value* values, std::string* error) {
  LINBP_CHECK(sizeof(Value) == sizeof(double) || manifest.values_f32);
  const std::int64_t rows = h.row_end - h.row_begin;
  const std::int64_t groups = RowGroupCount(rows);
  const std::size_t table_bytes = 16 * static_cast<std::size_t>(groups);
  if (*payload_size < 8 + table_bytes) {
    *error = path + ": truncated shard payload";
    return false;
  }
  std::uint64_t varint_bytes = 0;
  std::memcpy(&varint_bytes, *payload, 8);
  const char* table = *payload + 8;
  const std::size_t after_table = *payload_size - 8 - table_bytes;
  const std::size_t count = static_cast<std::size_t>(h.nnz);
  const std::size_t width = static_cast<std::size_t>(manifest.value_bytes());
  // Division, not multiplication, so a hostile count cannot wrap. Both
  // sections are bounded before any group runs, so no group can read
  // past the payload. A unit-weight shard has no value section to bound.
  if (varint_bytes > after_table ||
      (width > 0 && count > (after_table - varint_bytes) / width)) {
    *error = path + ": truncated shard payload";
    return false;
  }
  if (const char* what = CheckRowGroupTable(
          table, groups, varint_bytes, static_cast<std::uint64_t>(h.nnz))) {
    *error = path + ": invalid shard column section (row-group table: " +
             what + ")";
    return false;
  }

  const char* varints = table + table_bytes;
  const RowGroupDecoder<Value> decoder{table,
                                       varints,
                                       varints + varint_bytes,
                                       manifest.values_f32,
                                       manifest.unit_weights,
                                       rows,
                                       h.row_begin,
                                       manifest.num_nodes,
                                       local_row_ptr,
                                       col_idx,
                                       values};
  local_row_ptr[0] = 0;
  // One task per group. A failing group lowers `lowest`; groups above it
  // skip their work, since only the lowest failure is ever reported.
  std::atomic<std::int64_t> lowest(groups);
  ctx.RunBlocks(groups, [&decoder, &lowest](std::int64_t g) {
    if (g > lowest.load(std::memory_order_relaxed)) return;
    if (decoder.Decode(g) == nullptr) return;
    std::int64_t seen = lowest.load(std::memory_order_relaxed);
    while (g < seen && !lowest.compare_exchange_weak(
                           seen, g, std::memory_order_relaxed)) {
    }
  });
  if (const std::int64_t g = lowest.load(); g < groups) {
    // Decoding is a pure function of the group's bytes, so running the
    // lowest failing group again names its defect — the same one at
    // every thread count.
    const char* what = decoder.Decode(g);
    *error = path +
             (what == kNonFiniteWeight
                  ? ": invalid shard value section (row group "
                  : ": invalid shard column section (row group ") +
             std::to_string(g) + ": " + what + ")";
    return false;
  }
  const std::size_t consumed = 8 + table_bytes + varint_bytes + count * width;
  *payload += consumed;
  *payload_size -= consumed;
  return true;
}

template bool DecodeCompressedCsr<double>(const std::string&,
                                          const ShardManifest&,
                                          const ShardFileHeader&,
                                          const exec::ExecContext&,
                                          const char**, std::size_t*,
                                          std::int64_t*, std::int32_t*,
                                          double*, std::string*);
template bool DecodeCompressedCsr<float>(const std::string&,
                                         const ShardManifest&,
                                         const ShardFileHeader&,
                                         const exec::ExecContext&,
                                         const char**, std::size_t*,
                                         std::int64_t*, std::int32_t*,
                                         float*, std::string*);


namespace {

// Smallest possible payload of a shard with the given counts: the u64
// varint byte count, the row-group table, at least one varint byte per
// row and per column id, the exact value section (`value_bytes` per
// value, none for unit weights), and the explicit and ground-truth
// sections. A manifest entry declaring less is rejected, so a hostile
// manifest cannot claim huge decoded counts backed by a tiny file and
// trigger a multi-terabyte resize. Cannot overflow: rows <= 2^31, nnz <=
// 2^48 (the entry cap), k <= kMaxClasses.
std::int64_t ShardPayloadBytesMin(std::int64_t rows, std::int64_t nnz,
                                  std::int64_t num_explicit, std::int64_t k,
                                  bool has_ground_truth,
                                  std::int64_t value_bytes) {
  return 8 +                         // u64 varint byte count
         16 * RowGroupCount(rows) +  // row-group table
         rows + nnz +                // >= 1 byte per varint
         nnz * value_bytes + num_explicit * 8 * (1 + k) +
         (has_ground_truth ? rows * 4 : 0);
}

// The magic of the retired raw snapshot layout (versions 1 and 2), named
// in its error so an old file is not mistaken for random bytes.
constexpr char kRetiredSnapshotMagic[8] = {'L', 'I', 'N', 'B',
                                           'P', 'S', 'N', 'P'};

// Validates the magic / version / endianness prefix of a header. `what`
// names the file in errors ("shard manifest", "snapshot shard").
bool CheckMagicVersionEndian(const std::string& path,
                             const std::vector<char>& bytes,
                             const char* magic, const char* what,
                             std::string* error) {
  if (bytes.size() < kHeaderBytes) {
    *error = path + ": truncated " + what + " (shorter than the header)";
    return false;
  }
  const char* data = bytes.data();
  std::uint32_t version = 0;
  std::memcpy(&version, data + 8, 4);
  if (std::memcmp(data, magic, 8) != 0) {
    *error = std::memcmp(data, kRetiredSnapshotMagic, 8) == 0
                 ? path + ": retired raw snapshot layout (version " +
                       std::to_string(version) +
                       "); regenerate it with `linbp_cli convert`"
                 : path + ": not a LinBP " + what + " (bad magic)";
    return false;
  }
  std::uint32_t endian = 0;
  std::memcpy(&endian, data + 12, 4);
  if (endian == kEndianTagSwapped) {
    *error = path + ": big-endian " + what + " is not supported";
    return false;
  }
  if (endian != kEndianTag) {
    *error = path + ": corrupted header (bad endian tag)";
    return false;
  }
  if (version != kShardFormatVersion) {
    *error = path + ": unsupported " + what + " version " +
             std::to_string(version) + " (expected " +
             std::to_string(kShardFormatVersion) + ")";
    return false;
  }
  return true;
}

// Parses and range-checks a manifest header: counts, flags, and a shard
// count in [1, min(kMaxShards, num_nodes)].
bool ParseManifestHeader(const std::string& path,
                         const std::vector<char>& bytes, ShardManifest* m,
                         std::uint32_t* num_shards, std::uint64_t* checksum,
                         std::string* error) {
  if (!CheckMagicVersionEndian(path, bytes, kShardManifestMagic,
                               "shard manifest", error)) {
    return false;
  }
  const char* data = bytes.data();
  std::uint32_t flags = 0;
  std::memcpy(&m->num_nodes, data + 16, 8);
  std::memcpy(&m->k, data + 24, 8);
  std::memcpy(&m->nnz, data + 32, 8);
  std::memcpy(&m->num_explicit, data + 40, 8);
  std::memcpy(&flags, data + 48, 4);
  std::memcpy(num_shards, data + 52, 4);
  std::memcpy(checksum, data + 56, 8);
  if (m->num_nodes < 0 ||
      m->num_nodes > std::numeric_limits<std::int32_t>::max() || m->k < 1 ||
      m->k > kMaxClasses || m->nnz < 0 || m->num_explicit < 0 ||
      m->num_explicit > m->num_nodes) {
    *error = path + ": corrupted manifest header (counts out of range)";
    return false;
  }
  if ((flags & ~(kFlagGroundTruth | kFlagF32Values | kFlagShardsInline |
                 kFlagUnitWeights)) != 0) {
    *error = path + ": corrupted manifest header (unknown flags)";
    return false;
  }
  m->has_ground_truth = (flags & kFlagGroundTruth) != 0;
  m->values_f32 = (flags & kFlagF32Values) != 0;
  m->shards_inline = (flags & kFlagShardsInline) != 0;
  m->unit_weights = (flags & kFlagUnitWeights) != 0;
  if (m->unit_weights && m->values_f32) {
    *error = path +
             ": corrupted manifest header (unit weights with f32 values)";
    return false;
  }
  if (*num_shards < 1 ||
      static_cast<std::int64_t>(*num_shards) > kMaxShards ||
      static_cast<std::int64_t>(*num_shards) > m->num_nodes) {
    *error = path + ": corrupted manifest header (shard count out of range)";
    return false;
  }
  return true;
}

bool TruncatedManifest(const std::string& path, std::string* error) {
  *error = path + ": truncated manifest payload";
  return false;
}

// Parses and validates a whole manifest (`bytes` is exactly its size):
// the header again, the payload checksum, and the shard table.
bool ParseManifest(const std::string& path, const std::vector<char>& bytes,
                   ShardManifest* m, std::string* error) {
  std::uint32_t num_shards = 0;
  std::uint64_t checksum = 0;
  if (!ParseManifestHeader(path, bytes, m, &num_shards, &checksum, error)) {
    return false;
  }
  const char* payload = bytes.data() + kHeaderBytes;
  const std::size_t payload_size = bytes.size() - kHeaderBytes;
  if (PayloadChecksum(payload, payload_size) != checksum) {
    *error = path + ": checksum mismatch (corrupted manifest)";
    return false;
  }

  Cursor cursor(payload, payload_size);
  m->coupling.resize(static_cast<std::size_t>(m->k * m->k));
  if (!cursor.ReadString(&m->name) || !cursor.ReadString(&m->spec) ||
      !cursor.Read(m->coupling.data(), m->coupling.size())) {
    return TruncatedManifest(path, error);
  }
  // The head read sized the file by num_shards, so this many entries are
  // backed by real bytes.
  m->entries.resize(num_shards);
  std::int64_t nnz_sum = 0;
  std::int64_t explicit_sum = 0;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    ShardManifestEntry& entry = m->entries[s];
    if (!cursor.Read(&entry.row_begin, 1) || !cursor.Read(&entry.row_end, 1) ||
        !cursor.Read(&entry.nnz, 1) || !cursor.Read(&entry.num_explicit, 1) ||
        !cursor.Read(&entry.payload_bytes, 1) ||
        !cursor.Read(&entry.checksum, 1)) {
      return TruncatedManifest(path, error);
    }
    // The shard table must tile [0, num_nodes) exactly: shard 0 starts at
    // row 0, every shard is non-empty and abuts its predecessor (no gap,
    // no overlap), and the last one ends at num_nodes (checked below).
    const std::int64_t expected_begin =
        s == 0 ? 0 : m->entries[s - 1].row_end;
    if (entry.row_begin != expected_begin) {
      *error = path + ": shard " + std::to_string(s) +
               " row range does not abut its predecessor (gap or overlap)";
      return false;
    }
    if (entry.row_end <= entry.row_begin ||
        entry.row_end > m->num_nodes) {
      *error = path + ": shard " + std::to_string(s) +
               " row range is empty or out of bounds";
      return false;
    }
    // The 2^48 cap keeps every byte-size computation below comfortably
    // inside int64 (a real shard this large would be ~3 petabytes).
    if (entry.nnz < 0 || entry.nnz > (std::int64_t{1} << 48) ||
        entry.num_explicit < 0 ||
        entry.num_explicit > entry.row_end - entry.row_begin) {
      *error = path + ": shard " + std::to_string(s) +
               " counts out of range";
      return false;
    }
    // The declared payload size must lie between what the counts need at
    // one varint byte per row count and column id (the floor that ties
    // every decoded allocation to real bytes) and the 5-byte ceiling.
    const std::int64_t rows = entry.row_end - entry.row_begin;
    const std::int64_t floor = ShardPayloadBytesMin(
        rows, entry.nnz, entry.num_explicit, m->k, m->has_ground_truth,
        m->value_bytes());
    if (entry.payload_bytes < floor ||
        entry.payload_bytes > floor + 4 * (rows + entry.nnz)) {
      *error = path + ": shard " + std::to_string(s) +
               " payload size is inconsistent with its counts";
      return false;
    }
    // Incremental bound before accumulating: per-entry values are only
    // capped at 2^48, so a crafted 2^20-entry table could wrap a naive
    // int64 sum. Both sides here are non-negative and bounded by the
    // manifest totals, so the comparison itself cannot overflow.
    if (entry.nnz > m->nnz - nnz_sum ||
        entry.num_explicit > m->num_explicit - explicit_sum) {
      *error = path + ": shard counts exceed the manifest totals";
      return false;
    }
    nnz_sum += entry.nnz;
    explicit_sum += entry.num_explicit;
  }
  if (cursor.remaining() != 0) {
    *error = path + ": trailing bytes after the manifest payload";
    return false;
  }
  if (m->entries.back().row_end != m->num_nodes) {
    *error = path + ": shard row ranges do not cover every row";
    return false;
  }
  if (nnz_sum != m->nnz) {
    *error = path + ": shard nnz counts do not sum to the manifest total";
    return false;
  }
  if (explicit_sum != m->num_explicit) {
    *error = path +
             ": shard explicit counts do not sum to the manifest total";
    return false;
  }
  return true;
}

}  // namespace

bool ReadShardManifest(const std::string& path, ShardManifest* m,
                       std::string* error) {
  LINBP_CHECK(error != nullptr);
  // The head: the header with the name length, then the spec length.
  std::vector<char> bytes;
  std::uint64_t file_bytes = 0;
  std::uint32_t num_shards = 0;
  std::uint64_t checksum = 0;
  if (!ReadFileRange(path, 0, kHeaderBytes + 4, UINT64_MAX, &bytes,
                     &file_bytes, error) ||
      !ParseManifestHeader(path, bytes, m, &num_shards, &checksum, error)) {
    return false;
  }
  if (bytes.size() < kHeaderBytes + 4) return TruncatedManifest(path, error);
  std::uint32_t name_bytes = 0;
  std::uint32_t spec_bytes = 0;
  std::memcpy(&name_bytes, bytes.data() + kHeaderBytes, 4);
  if (!ReadFileRange(path, kHeaderBytes + 4 + std::uint64_t{name_bytes}, 4,
                     UINT64_MAX, &bytes, &file_bytes, error)) {
    return false;
  }
  if (bytes.size() < 4) return TruncatedManifest(path, error);
  std::memcpy(&spec_bytes, bytes.data(), 4);
  // Every term is bounded (u32 strings, k <= kMaxClasses, num_shards <=
  // kMaxShards), so the sum cannot overflow.
  const std::uint64_t manifest_bytes =
      kHeaderBytes + 8 + std::uint64_t{name_bytes} + spec_bytes +
      8 * static_cast<std::uint64_t>(m->k * m->k) +
      kManifestEntryBytes * num_shards;
  if (file_bytes < manifest_bytes) return TruncatedManifest(path, error);
  if (!m->shards_inline && file_bytes > manifest_bytes) {
    *error = OversizedFileError(path, file_bytes, manifest_bytes);
    return false;
  }
  if (!ReadFileRange(path, 0, manifest_bytes,
                     m->shards_inline ? UINT64_MAX : manifest_bytes, &bytes,
                     &file_bytes, error) ||
      !ParseManifest(path, bytes, m, error)) {
    return false;
  }
  // Inline shards follow in index order, and the file ends exactly after
  // the last. Each shard is compared with what is left of the file before
  // it is added, so the running end never passes the file size.
  std::uint64_t end = manifest_bytes;
  if (m->shards_inline) {
    for (ShardManifestEntry& entry : m->entries) {
      const std::uint64_t shard_bytes =
          kHeaderBytes + static_cast<std::uint64_t>(entry.payload_bytes);
      if (shard_bytes > file_bytes - end) {
        *error = path + ": truncated shard payload";
        return false;
      }
      entry.offset = end;
      end += shard_bytes;
    }
  }
  if (end != file_bytes) {
    *error = OversizedFileError(path, file_bytes, end);
    return false;
  }
  m->file_bytes = static_cast<std::int64_t>(file_bytes);
  return true;
}

std::string ShardPath(const std::string& manifest_path,
                      const ShardManifest& manifest, std::int64_t shard) {
  if (manifest.shards_inline) return manifest_path;
  return (std::filesystem::path(manifest_path).parent_path() /
          ShardFileName(shard))
      .string();
}

bool ReadShardBytes(const std::string& path, const ShardManifest& manifest,
                    std::int64_t shard, std::vector<char>* out,
                    std::string* error) {
  const ShardManifestEntry& entry = manifest.entries[shard];
  const std::uint64_t shard_bytes =
      kHeaderBytes + static_cast<std::uint64_t>(entry.payload_bytes);
  std::uint64_t file_bytes = 0;
  return ReadFileRange(
      path, entry.offset, shard_bytes,
      manifest.shards_inline ? static_cast<std::uint64_t>(manifest.file_bytes)
                             : shard_bytes,
      out, &file_bytes, error);
}

bool CheckShardAgainstManifest(const std::string& path,
                               const std::vector<char>& bytes,
                               const ShardManifest& manifest,
                               std::int64_t shard, ShardFileHeader* h,
                               std::string* error) {
  const ShardManifestEntry& entry = manifest.entries[shard];
  if (!CheckMagicVersionEndian(path, bytes, kShardFileMagic, "snapshot shard",
                               error)) {
    return false;
  }
  std::memcpy(&h->row_begin, bytes.data() + 16, 8);
  std::memcpy(&h->row_end, bytes.data() + 24, 8);
  std::memcpy(&h->nnz, bytes.data() + 32, 8);
  std::memcpy(&h->num_explicit, bytes.data() + 40, 8);
  std::memcpy(&h->flags, bytes.data() + 48, 4);
  std::memcpy(&h->shard_index, bytes.data() + 52, 4);
  std::memcpy(&h->checksum, bytes.data() + 56, 8);
  const std::uint32_t expected_flags =
      (manifest.has_ground_truth ? kFlagGroundTruth : 0) |
      (manifest.values_f32 ? kFlagF32Values : 0) |
      (manifest.unit_weights ? kFlagUnitWeights : 0);
  if (h->row_begin != entry.row_begin || h->row_end != entry.row_end ||
      h->nnz != entry.nnz || h->num_explicit != entry.num_explicit ||
      h->flags != expected_flags ||
      h->shard_index != static_cast<std::uint32_t>(shard)) {
    *error = path + ": shard header disagrees with its manifest entry";
    return false;
  }
  // The declared payload size is at least what the header counts need
  // on disk, so holding the bytes to it bounds every count-sized buffer a
  // decoder allocates by real bytes, even under forged checksums. The
  // readers never read past it (ReadShardBytes), so only a short read
  // can miss it.
  const char* payload = bytes.data() + kHeaderBytes;
  const std::size_t payload_size = bytes.size() - kHeaderBytes;
  if (payload_size != static_cast<std::size_t>(entry.payload_bytes)) {
    *error = path + ": truncated shard payload";
    return false;
  }
  if (h->checksum != entry.checksum ||
      PayloadChecksum(payload, payload_size) != h->checksum) {
    *error = path + ": checksum mismatch (corrupted shard)";
    return false;
  }
  return true;
}

}  // namespace internal
}  // namespace dataset
}  // namespace linbp
