#include "src/dataset/snapshot.h"

#include <cstring>
#include <utility>
#include <vector>

#include "src/dataset/format_internal.h"
#include "src/util/check.h"

namespace linbp {
namespace dataset {
namespace {

using internal::AppendPod;
using internal::AppendString;
using internal::Cursor;
using internal::kFlagGroundTruth;
using internal::kHeaderBytes;
using internal::kMaxClasses;
using internal::PayloadChecksum;

constexpr char kMagic[8] = {'L', 'I', 'N', 'B', 'P', 'S', 'N', 'P'};

struct Header {
  std::uint32_t version = 0;
  std::int64_t num_nodes = 0;
  std::int64_t k = 0;
  std::int64_t nnz = 0;
  std::int64_t num_explicit = 0;
  std::uint32_t flags = 0;
  std::uint64_t checksum = 0;
};

void WriteHeader(const Header& h, char* out) {
  std::memcpy(out, kMagic, 8);
  std::memcpy(out + 8, &h.version, 4);
  std::memcpy(out + 12, &internal::kEndianTag, 4);
  std::memcpy(out + 16, &h.num_nodes, 8);
  std::memcpy(out + 24, &h.k, 8);
  std::memcpy(out + 32, &h.nnz, 8);
  std::memcpy(out + 40, &h.num_explicit, 8);
  std::memcpy(out + 48, &h.flags, 4);
  const std::uint32_t reserved = 0;
  std::memcpy(out + 52, &reserved, 4);
  std::memcpy(out + 56, &h.checksum, 8);
}

bool ParseHeader(const std::string& path, const char* data, std::size_t size,
                 Header* h, std::string* error) {
  if (!internal::CheckMagicVersionEndian(path, data, size, kMagic,
                                         kSnapshotVersion, "snapshot",
                                         error)) {
    return false;
  }
  std::memcpy(&h->version, data + 8, 4);
  std::memcpy(&h->num_nodes, data + 16, 8);
  std::memcpy(&h->k, data + 24, 8);
  std::memcpy(&h->nnz, data + 32, 8);
  std::memcpy(&h->num_explicit, data + 40, 8);
  std::memcpy(&h->flags, data + 48, 4);
  std::memcpy(&h->checksum, data + 56, 8);
  return internal::CheckHeaderCounts(path, h->num_nodes, h->k, h->nnz,
                                     h->num_explicit, h->flags,
                                     internal::kFlagGroundTruth, "header",
                                     error);
}

bool TruncatedPayload(const std::string& path, std::string* error) {
  *error = path + ": truncated snapshot payload";
  return false;
}

// The front of a snapshot, read without the rest of the file: the
// header and the lengths of the name and spec strings right after it.
struct SnapshotHead {
  Header header;
  std::uint32_t name_bytes = 0;
  std::uint32_t spec_bytes = 0;
  std::uint64_t file_bytes = 0;  // the exact size the fields above imply
};

// Reads a snapshot's head and checks the file is exactly the size it
// implies, before anything sized by the file is allocated: a file that
// ends early (or inside the strings' length prefixes) is a truncated
// payload, one that runs past the end is an OversizedFileError.
bool ReadSnapshotHead(const std::string& path, SnapshotHead* head,
                      std::string* error) {
  std::vector<char> bytes;
  std::uint64_t file_bytes = 0;
  if (!internal::ReadFileRange(path, 0, kHeaderBytes + 4, &bytes,
                               &file_bytes, error) ||
      !ParseHeader(path, bytes.data(), bytes.size(), &head->header, error)) {
    return false;
  }
  if (bytes.size() < kHeaderBytes + 4) {
    return TruncatedPayload(path, error);
  }
  std::memcpy(&head->name_bytes, bytes.data() + kHeaderBytes, 4);
  if (!internal::ReadFileRange(path, kHeaderBytes + 4 + head->name_bytes, 4,
                               &bytes, &file_bytes, error)) {
    return false;
  }
  if (bytes.size() < 4) {
    return TruncatedPayload(path, error);
  }
  std::memcpy(&head->spec_bytes, bytes.data(), 4);
  const Header& h = head->header;
  // Each adjacency entry takes 12 bytes, so a larger nnz cannot fit (and
  // bounding it keeps the sum below from overflowing).
  if (static_cast<std::uint64_t>(h.nnz) > file_bytes / 12) {
    return TruncatedPayload(path, error);
  }
  head->file_bytes =
      kHeaderBytes + 8 + std::uint64_t{head->name_bytes} + head->spec_bytes +
      static_cast<std::uint64_t>(h.k * h.k) * 8 +
      static_cast<std::uint64_t>(internal::ShardPayloadBytes(
          h.num_nodes, h.nnz, h.num_explicit, h.k,
          (h.flags & kFlagGroundTruth) != 0));
  if (file_bytes < head->file_bytes) {
    return TruncatedPayload(path, error);
  }
  if (file_bytes > head->file_bytes) {
    *error = internal::OversizedFileError(path, file_bytes, head->file_bytes);
    return false;
  }
  return true;
}

}  // namespace

bool SaveSnapshot(const Scenario& scenario, const std::string& path,
                  std::string* error) {
  LINBP_CHECK(error != nullptr);
  LINBP_CHECK(scenario.k >= 1 && scenario.k <= kMaxClasses);
  LINBP_CHECK(scenario.coupling_residual.rows() == scenario.k &&
              scenario.coupling_residual.cols() == scenario.k);
  const Graph& graph = scenario.graph;
  const SparseMatrix& adjacency = graph.adjacency();
  LINBP_CHECK(scenario.explicit_residuals.rows() == graph.num_nodes() &&
              scenario.explicit_residuals.cols() == scenario.k);
  LINBP_CHECK(!scenario.HasGroundTruth() ||
              static_cast<std::int64_t>(scenario.ground_truth.size()) ==
                  graph.num_nodes());

  std::vector<char> payload;
  AppendString(scenario.name, &payload);
  AppendString(scenario.spec, &payload);
  AppendPod(scenario.coupling_residual.data().data(),
            static_cast<std::size_t>(scenario.k * scenario.k), &payload);
  AppendPod(adjacency.row_ptr().data(), adjacency.row_ptr().size(), &payload);
  AppendPod(adjacency.col_idx().data(), adjacency.col_idx().size(), &payload);
  AppendPod(adjacency.values().data(), adjacency.values().size(), &payload);
  AppendPod(scenario.explicit_nodes.data(), scenario.explicit_nodes.size(),
            &payload);
  // Only the labeled rows of the (mostly zero) belief matrix are stored.
  std::vector<double> rows;
  rows.reserve(scenario.explicit_nodes.size() *
               static_cast<std::size_t>(scenario.k));
  for (const std::int64_t v : scenario.explicit_nodes) {
    LINBP_CHECK(v >= 0 && v < graph.num_nodes());
    for (std::int64_t c = 0; c < scenario.k; ++c) {
      rows.push_back(scenario.explicit_residuals.At(v, c));
    }
  }
  AppendPod(rows.data(), rows.size(), &payload);
  if (scenario.HasGroundTruth()) {
    AppendPod(scenario.ground_truth.data(), scenario.ground_truth.size(),
              &payload);
  }

  Header header;
  header.version = kSnapshotVersion;
  header.num_nodes = graph.num_nodes();
  header.k = scenario.k;
  header.nnz = adjacency.NumNonZeros();
  header.num_explicit =
      static_cast<std::int64_t>(scenario.explicit_nodes.size());
  header.flags = scenario.HasGroundTruth() ? kFlagGroundTruth : 0;
  header.checksum = PayloadChecksum(payload.data(), payload.size());
  char header_bytes[kHeaderBytes];
  WriteHeader(header, header_bytes);
  return internal::WriteFileDurably(path, header_bytes, kHeaderBytes, payload,
                                    error);
}

std::optional<Scenario> LoadSnapshot(const std::string& path,
                                     std::string* error,
                                     const exec::ExecContext& ctx) {
  LINBP_CHECK(error != nullptr);
  SnapshotHead head;
  if (!ReadSnapshotHead(path, &head, error)) return std::nullopt;
  // Capped at the size the head implies, so a file that grew since is an
  // error, not a larger read; everything below re-checks these bytes.
  std::vector<char> bytes;
  if (!internal::ReadFileBytes(path, &bytes, error, head.file_bytes)) {
    return std::nullopt;
  }
  Header header;
  if (!ParseHeader(path, bytes.data(), bytes.size(), &header, error)) {
    return std::nullopt;
  }
  const char* payload = bytes.data() + kHeaderBytes;
  const std::size_t payload_size = bytes.size() - kHeaderBytes;
  if (PayloadChecksum(payload, payload_size) != header.checksum) {
    *error = path + ": checksum mismatch (corrupted snapshot)";
    return std::nullopt;
  }

  const std::int64_t n = header.num_nodes;
  const std::int64_t k = header.k;
  internal::ScenarioParts parts;
  parts.num_nodes = n;
  parts.k = k;
  parts.has_ground_truth = (header.flags & kFlagGroundTruth) != 0;
  parts.coupling.resize(static_cast<std::size_t>(k * k));
  Cursor cursor(payload, payload_size);
  const bool sections_ok =
      cursor.ReadString(&parts.name) && cursor.ReadString(&parts.spec) &&
      cursor.Read(parts.coupling.data(), parts.coupling.size()) &&
      cursor.ReadVector(&parts.row_ptr, static_cast<std::size_t>(n + 1)) &&
      cursor.ReadVector(&parts.col_idx,
                        static_cast<std::size_t>(header.nnz)) &&
      cursor.ReadVector(&parts.values, static_cast<std::size_t>(header.nnz)) &&
      cursor.ReadVector(&parts.explicit_nodes,
                        static_cast<std::size_t>(header.num_explicit)) &&
      cursor.ReadVector(&parts.explicit_rows,
                        static_cast<std::size_t>(header.num_explicit * k)) &&
      (!parts.has_ground_truth ||
       cursor.ReadVector(&parts.ground_truth, static_cast<std::size_t>(n)));
  if (!sections_ok) {
    TruncatedPayload(path, error);
    return std::nullopt;
  }
  if (cursor.remaining() != 0) {
    *error = path + ": trailing bytes after the payload";
    return std::nullopt;
  }
  return internal::ValidateAndAssembleScenario(path, std::move(parts), ctx,
                                               error);
}

std::optional<SnapshotInfo> ReadSnapshotInfo(const std::string& path,
                                             std::string* error) {
  LINBP_CHECK(error != nullptr);
  SnapshotHead head;
  if (!ReadSnapshotHead(path, &head, error)) return std::nullopt;
  std::vector<char> bytes;
  std::uint64_t file_bytes = 0;
  if (!internal::ReadFileRange(path, kHeaderBytes,
                               8 + std::size_t{head.name_bytes} +
                                   head.spec_bytes,
                               &bytes, &file_bytes, error)) {
    return std::nullopt;
  }
  SnapshotInfo info;
  const Header& header = head.header;
  info.version = header.version;
  info.num_nodes = header.num_nodes;
  info.k = header.k;
  info.nnz = header.nnz;
  info.num_explicit = header.num_explicit;
  info.has_ground_truth = (header.flags & kFlagGroundTruth) != 0;
  info.file_bytes = static_cast<std::int64_t>(head.file_bytes);
  Cursor cursor(bytes.data(), bytes.size());
  if (!cursor.ReadString(&info.name) || !cursor.ReadString(&info.spec)) {
    TruncatedPayload(path, error);
    return std::nullopt;
  }
  return info;
}

}  // namespace dataset
}  // namespace linbp
