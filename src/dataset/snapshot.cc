#include "src/dataset/snapshot.h"

#include "src/dataset/format_internal.h"
#include "src/dataset/shard.h"

namespace linbp {
namespace dataset {

bool SaveSnapshot(const Scenario& scenario, const std::string& path,
                  std::string* error) {
  return internal::WriteShardSet(scenario, /*max_shards=*/1,
                                 ShardCompression::kF64,
                                 /*shards_inline=*/true, path, error)
      .has_value();
}

std::optional<Scenario> LoadSnapshot(const std::string& path,
                                     std::string* error,
                                     const exec::ExecContext& ctx) {
  return LoadShardedSnapshot(path, error, ctx);
}

}  // namespace dataset
}  // namespace linbp
