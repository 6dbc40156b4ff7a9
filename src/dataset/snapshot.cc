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
  std::vector<char> bytes;
  if (!internal::ReadFileBytes(path, &bytes, error)) return std::nullopt;
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
    *error = path + ": truncated snapshot payload";
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
  std::vector<char> bytes;
  if (!internal::ReadFileBytes(path, &bytes, error)) return std::nullopt;
  Header header;
  if (!ParseHeader(path, bytes.data(), bytes.size(), &header, error)) {
    return std::nullopt;
  }
  SnapshotInfo info;
  info.version = header.version;
  info.num_nodes = header.num_nodes;
  info.k = header.k;
  info.nnz = header.nnz;
  info.num_explicit = header.num_explicit;
  info.has_ground_truth = (header.flags & kFlagGroundTruth) != 0;
  info.file_bytes = static_cast<std::int64_t>(bytes.size());
  Cursor cursor(bytes.data() + kHeaderBytes, bytes.size() - kHeaderBytes);
  if (!cursor.ReadString(&info.name) || !cursor.ReadString(&info.spec)) {
    *error = path + ": truncated snapshot payload";
    return std::nullopt;
  }
  return info;
}

}  // namespace dataset
}  // namespace linbp
