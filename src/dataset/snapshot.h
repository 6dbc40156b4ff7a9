// Binary graph snapshots: fast, checksummed persistence for Scenarios.
//
// Text edge lists parse one token at a time; a snapshot stores the frozen
// CSR arrays, so loading is dominated by I/O and a varint decode that
// fans out on an ExecContext, not by parsing. A snapshot (`.lbps`) is a
// shard manifest whose shards follow it in the same file
// (src/dataset/shard.h documents the one layout): SaveSnapshot writes one
// inline shard with f64 values, which is lossless, and LoadSnapshot is
// LoadShardedSnapshot, which reads every form of the layout. Load rejects
// wrong magic/version/endianness, truncated or oversized files (before
// buffering them), checksum mismatches, and structurally invalid payloads
// with descriptive errors — it never aborts on bad bytes.

#ifndef LINBP_DATASET_SNAPSHOT_H_
#define LINBP_DATASET_SNAPSHOT_H_

#include <optional>
#include <string>

#include "src/dataset/scenario.h"
#include "src/exec/exec_context.h"

namespace linbp {
namespace dataset {

/// Writes `scenario` to `path` as a manifest with one inline f64 shard.
/// Returns false and fills *error on I/O failure or an empty scenario.
bool SaveSnapshot(const Scenario& scenario, const std::string& path,
                  std::string* error);

/// Reads a snapshot — or any shard manifest — back into a Scenario:
/// LoadShardedSnapshot (src/dataset/shard.h). Returns nullopt and fills
/// *error on I/O failure or any form of corruption.
std::optional<Scenario> LoadSnapshot(const std::string& path,
                                     std::string* error,
                                     const exec::ExecContext& ctx =
                                         exec::ExecContext::Default());

}  // namespace dataset
}  // namespace linbp

#endif  // LINBP_DATASET_SNAPSHOT_H_
