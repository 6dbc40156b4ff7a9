#include "src/dataset/update_stream.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "src/util/check.h"
#include "src/util/random.h"

namespace linbp {
namespace dataset {
namespace {

// Strict token parses in the io.cc tradition: the whole token must
// convert, and non-finite values get their own message downstream.
bool ParseDoubleToken(const std::string& token, double* out) {
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  return !token.empty() && *end == '\0';
}

bool ParseInt64Token(const std::string& token, std::int64_t* out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  *out = static_cast<std::int64_t>(value);
  return true;
}

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

std::string EdgeKey(std::int64_t u, std::int64_t v) {
  return "(" + std::to_string(std::min(u, v)) + ", " +
         std::to_string(std::max(u, v)) + ")";
}

}  // namespace

bool IsUpdateStreamComment(const std::string& line) {
  for (const char c : line) {
    if (c == '#') return true;
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

bool ParseUpdateLine(const std::string& line, std::int64_t expected_k,
                     UpdateOp* op, std::string* error) {
  LINBP_CHECK(op != nullptr && error != nullptr);
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) {
    *error = "empty update line";
    return false;
  }
  const std::string& command = tokens[0];
  UpdateOp parsed;
  if (command == "a" || command == "d" || command == "w") {
    const bool has_weight = command != "d";
    const std::size_t expected_fields = has_weight ? 4 : 3;
    if (tokens.size() != expected_fields) {
      *error = "expected '" + command + " u v" +
               std::string(has_weight ? " w" : "") + "', got " +
               std::to_string(tokens.size()) + " fields";
      return false;
    }
    if (!ParseInt64Token(tokens[1], &parsed.u) ||
        !ParseInt64Token(tokens[2], &parsed.v)) {
      *error = "malformed node id in '" + line + "'";
      return false;
    }
    if (has_weight) {
      if (!ParseDoubleToken(tokens[3], &parsed.weight)) {
        *error = "malformed weight token '" + tokens[3] + "'";
        return false;
      }
      if (!std::isfinite(parsed.weight)) {
        *error = "non-finite weight in '" + line + "'";
        return false;
      }
    }
    parsed.kind = command == "a"   ? UpdateKind::kAddEdge
                  : command == "d" ? UpdateKind::kDeleteEdge
                                   : UpdateKind::kReweightEdge;
  } else if (command == "b") {
    if (tokens.size() < 3) {
      *error = "expected 'b node k r_1 ... r_k'";
      return false;
    }
    std::int64_t k = 0;
    if (!ParseInt64Token(tokens[1], &parsed.u) ||
        !ParseInt64Token(tokens[2], &k)) {
      *error = "malformed node id or class count in '" + line + "'";
      return false;
    }
    if (k < 2) {
      *error = "belief update must carry k >= 2 classes, got " +
               std::to_string(k);
      return false;
    }
    if (expected_k > 0 && k != expected_k) {
      *error = "belief update carries " + std::to_string(k) +
               " classes but the problem has " + std::to_string(expected_k);
      return false;
    }
    if (static_cast<std::int64_t>(tokens.size()) != 3 + k) {
      *error = "belief update declares " + std::to_string(k) +
               " classes but carries " + std::to_string(tokens.size() - 3) +
               " residuals";
      return false;
    }
    parsed.residuals.resize(static_cast<std::size_t>(k));
    for (std::int64_t c = 0; c < k; ++c) {
      const std::string& token = tokens[static_cast<std::size_t>(3 + c)];
      if (!ParseDoubleToken(token, &parsed.residuals[c])) {
        *error = "malformed residual token '" + token + "'";
        return false;
      }
      if (!std::isfinite(parsed.residuals[c])) {
        *error = "non-finite residual in '" + line + "'";
        return false;
      }
    }
    parsed.kind = UpdateKind::kBeliefUpdate;
  } else {
    *error = "unknown update command '" + command +
             "' (expected a, d, w, or b)";
    return false;
  }
  *op = std::move(parsed);
  return true;
}

std::optional<std::vector<UpdateOp>> ReadUpdateStream(
    const std::string& path, std::int64_t expected_k, std::string* error) {
  LINBP_CHECK(error != nullptr);
  std::ifstream in(path);
  if (!in) {
    *error = path + ": cannot open";
    return std::nullopt;
  }
  std::vector<UpdateOp> ops;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (IsUpdateStreamComment(line)) continue;
    UpdateOp op;
    std::string problem;
    if (!ParseUpdateLine(line, expected_k, &op, &problem)) {
      *error = path + ":" + std::to_string(line_number) + ": " + problem;
      return std::nullopt;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

std::string FormatUpdateOp(const UpdateOp& op) {
  char buffer[64];
  std::ostringstream out;
  auto append_double = [&](double value) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    out << ' ' << buffer;
  };
  switch (op.kind) {
    case UpdateKind::kAddEdge:
      out << "a " << op.u << ' ' << op.v;
      append_double(op.weight);
      break;
    case UpdateKind::kDeleteEdge:
      out << "d " << op.u << ' ' << op.v;
      break;
    case UpdateKind::kReweightEdge:
      out << "w " << op.u << ' ' << op.v;
      append_double(op.weight);
      break;
    case UpdateKind::kBeliefUpdate:
      out << "b " << op.u << ' ' << op.residuals.size();
      for (const double r : op.residuals) append_double(r);
      break;
  }
  return out.str();
}

bool WriteUpdateStream(const std::vector<UpdateOp>& ops,
                       const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "# update stream: a u v w | d u v | w u v w | b node k r_1..r_k ("
      << ops.size() << " ops)\n";
  for (const UpdateOp& op : ops) out << FormatUpdateOp(op) << '\n';
  return static_cast<bool>(out);
}

int ApplyUpdateOp(const UpdateOp& op, LinBpState* state,
                  std::string* error) {
  LINBP_CHECK(state != nullptr);
  switch (op.kind) {
    case UpdateKind::kAddEdge:
      return state->AddEdges({{op.u, op.v, op.weight}}, error);
    case UpdateKind::kDeleteEdge:
      return state->RemoveEdges({{op.u, op.v, 1.0}}, error);
    case UpdateKind::kReweightEdge:
      return state->UpdateEdgeWeights({{op.u, op.v, op.weight}}, error);
    case UpdateKind::kBeliefUpdate: {
      DenseMatrix row(1, static_cast<std::int64_t>(op.residuals.size()));
      for (std::size_t c = 0; c < op.residuals.size(); ++c) {
        row.At(0, static_cast<std::int64_t>(c)) = op.residuals[c];
      }
      return state->UpdateExplicitBeliefs({op.u}, row, error);
    }
  }
  LINBP_CHECK_MSG(false, "unreachable update kind");
  return -1;
}

int ApplyUpdateOp(const UpdateOp& op, SbpState* state, std::string* error) {
  LINBP_CHECK(state != nullptr);
  switch (op.kind) {
    case UpdateKind::kAddEdge:
      return state->AddEdges({{op.u, op.v, op.weight}}, error);
    case UpdateKind::kDeleteEdge:
      return state->RemoveEdges({{op.u, op.v, 1.0}}, error);
    case UpdateKind::kReweightEdge:
      return state->UpdateEdgeWeights({{op.u, op.v, op.weight}}, error);
    case UpdateKind::kBeliefUpdate: {
      DenseMatrix row(1, static_cast<std::int64_t>(op.residuals.size()));
      for (std::size_t c = 0; c < op.residuals.size(); ++c) {
        row.At(0, static_cast<std::int64_t>(c)) = op.residuals[c];
      }
      return state->AddExplicitBeliefs({op.u}, row, error);
    }
  }
  LINBP_CHECK_MSG(false, "unreachable update kind");
  return -1;
}

bool ApplyUpdateOpsToProblem(const std::vector<UpdateOp>& ops,
                             std::int64_t num_nodes,
                             std::vector<Edge>* edges,
                             DenseMatrix* residuals, std::string* error) {
  LINBP_CHECK(edges != nullptr && residuals != nullptr && error != nullptr);
  std::map<std::pair<std::int64_t, std::int64_t>, std::size_t> index;
  for (std::size_t i = 0; i < edges->size(); ++i) {
    const Edge& e = (*edges)[i];
    index[{std::min(e.u, e.v), std::max(e.u, e.v)}] = i;
  }
  for (const UpdateOp& op : ops) {
    if (op.kind == UpdateKind::kBeliefUpdate) {
      if (op.u < 0 || op.u >= num_nodes) {
        *error = "belief update names node " + std::to_string(op.u) +
                 " outside [0, " + std::to_string(num_nodes) + ")";
        return false;
      }
      if (static_cast<std::int64_t>(op.residuals.size()) !=
          residuals->cols()) {
        *error = "belief update carries " +
                 std::to_string(op.residuals.size()) +
                 " classes but the problem has " +
                 std::to_string(residuals->cols());
        return false;
      }
      for (std::size_t c = 0; c < op.residuals.size(); ++c) {
        residuals->At(op.u, static_cast<std::int64_t>(c)) = op.residuals[c];
      }
      continue;
    }
    if (op.u < 0 || op.u >= num_nodes || op.v < 0 || op.v >= num_nodes ||
        op.u == op.v) {
      *error = "edge op names invalid endpoints " + EdgeKey(op.u, op.v);
      return false;
    }
    const std::pair<std::int64_t, std::int64_t> key{std::min(op.u, op.v),
                                                    std::max(op.u, op.v)};
    const auto it = index.find(key);
    switch (op.kind) {
      case UpdateKind::kAddEdge:
        if (it != index.end()) {
          *error = "edge " + EdgeKey(op.u, op.v) + " already exists";
          return false;
        }
        if (!std::isfinite(op.weight)) {
          *error = "edge " + EdgeKey(op.u, op.v) + " has a non-finite weight";
          return false;
        }
        index[key] = edges->size();
        edges->push_back({key.first, key.second, op.weight});
        break;
      case UpdateKind::kDeleteEdge: {
        if (it == index.end()) {
          *error = "edge " + EdgeKey(op.u, op.v) + " does not exist";
          return false;
        }
        const std::size_t pos = it->second;
        index.erase(it);
        const Edge moved = edges->back();
        edges->pop_back();
        if (pos < edges->size()) {
          (*edges)[pos] = moved;
          index[{moved.u, moved.v}] = pos;
        }
        break;
      }
      case UpdateKind::kReweightEdge:
        if (it == index.end()) {
          *error = "edge " + EdgeKey(op.u, op.v) + " does not exist";
          return false;
        }
        if (!std::isfinite(op.weight)) {
          *error = "edge " + EdgeKey(op.u, op.v) + " has a non-finite weight";
          return false;
        }
        (*edges)[it->second].weight = op.weight;
        break;
      case UpdateKind::kBeliefUpdate:
        break;  // handled above
    }
  }
  return true;
}

UpdateTrace GenerateUpdateTrace(const Scenario& scenario,
                                const UpdateTraceOptions& options) {
  Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 17);
  const std::vector<Edge> all_edges = scenario.graph.edges();
  const std::int64_t num_ops = std::max<std::int64_t>(options.num_ops, 0);

  // Hold out the edges the trace will re-add: at most a quarter of the
  // graph, so the warm-start graph stays representative.
  std::int64_t num_adds = static_cast<std::int64_t>(
      std::llround(options.add_fraction * static_cast<double>(num_ops)));
  num_adds = std::min<std::int64_t>(
      num_adds, static_cast<std::int64_t>(all_edges.size()) / 4);
  std::vector<std::size_t> order(all_edges.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  std::vector<Edge> held_out;
  UpdateTrace trace;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Edge& e = all_edges[order[i]];
    if (static_cast<std::int64_t>(held_out.size()) < num_adds) {
      held_out.push_back(e);
    } else {
      trace.start_edges.push_back(e);
    }
  }

  // Plan the op kinds, then realize them in a shuffled order, falling
  // back (remove -> reweight -> add -> belief) when a pool runs dry.
  std::int64_t num_removes = static_cast<std::int64_t>(
      std::llround(options.remove_fraction * static_cast<double>(num_ops)));
  std::int64_t num_reweights = static_cast<std::int64_t>(std::llround(
      options.reweight_fraction * static_cast<double>(num_ops)));
  num_removes = std::min(num_removes, num_ops - num_adds);
  num_reweights = std::min(num_reweights, num_ops - num_adds - num_removes);
  std::vector<UpdateKind> kinds;
  kinds.insert(kinds.end(), static_cast<std::size_t>(num_adds),
               UpdateKind::kAddEdge);
  kinds.insert(kinds.end(), static_cast<std::size_t>(num_removes),
               UpdateKind::kDeleteEdge);
  kinds.insert(kinds.end(), static_cast<std::size_t>(num_reweights),
               UpdateKind::kReweightEdge);
  kinds.insert(kinds.end(),
               static_cast<std::size_t>(num_ops - num_adds - num_removes -
                                        num_reweights),
               UpdateKind::kBeliefUpdate);
  for (std::size_t i = kinds.size(); i > 1; --i) {
    std::swap(kinds[i - 1], kinds[rng.NextBounded(i)]);
  }

  std::vector<Edge> current = trace.start_edges;
  std::size_t next_add = 0;
  const std::int64_t k = scenario.k;
  for (UpdateKind kind : kinds) {
    // Feasibility fallbacks keep every op valid at its replay position.
    if (kind == UpdateKind::kAddEdge && next_add >= held_out.size()) {
      kind = UpdateKind::kReweightEdge;
    }
    if ((kind == UpdateKind::kDeleteEdge ||
         kind == UpdateKind::kReweightEdge) &&
        current.empty()) {
      kind = next_add < held_out.size() ? UpdateKind::kAddEdge
                                        : UpdateKind::kBeliefUpdate;
    }
    if (kind == UpdateKind::kBeliefUpdate &&
        scenario.explicit_nodes.empty()) {
      if (!current.empty()) {
        kind = UpdateKind::kReweightEdge;
      } else if (next_add < held_out.size()) {
        kind = UpdateKind::kAddEdge;
      } else {
        continue;  // nothing valid to emit
      }
    }
    UpdateOp op;
    switch (kind) {
      case UpdateKind::kAddEdge: {
        const Edge& e = held_out[next_add++];
        op.kind = UpdateKind::kAddEdge;
        op.u = e.u;
        op.v = e.v;
        op.weight = e.weight;
        current.push_back(e);
        break;
      }
      case UpdateKind::kDeleteEdge: {
        const std::size_t pick = rng.NextBounded(current.size());
        op.kind = UpdateKind::kDeleteEdge;
        op.u = current[pick].u;
        op.v = current[pick].v;
        current[pick] = current.back();
        current.pop_back();
        break;
      }
      case UpdateKind::kReweightEdge: {
        const std::size_t pick = rng.NextBounded(current.size());
        op.kind = UpdateKind::kReweightEdge;
        op.u = current[pick].u;
        op.v = current[pick].v;
        op.weight = options.min_weight +
                    (options.max_weight - options.min_weight) *
                        rng.NextDouble();
        current[pick].weight = op.weight;
        break;
      }
      case UpdateKind::kBeliefUpdate: {
        const std::size_t pick =
            rng.NextBounded(scenario.explicit_nodes.size());
        op.kind = UpdateKind::kBeliefUpdate;
        op.u = scenario.explicit_nodes[pick];
        op.residuals.resize(static_cast<std::size_t>(k));
        double mean = 0.0;
        for (std::int64_t c = 0; c < k; ++c) {
          op.residuals[static_cast<std::size_t>(c)] =
              0.2 * (rng.NextDouble() - 0.5);
          mean += op.residuals[static_cast<std::size_t>(c)];
        }
        mean /= static_cast<double>(k);
        bool nonzero = false;
        for (std::int64_t c = 0; c < k; ++c) {
          op.residuals[static_cast<std::size_t>(c)] -= mean;
          if (op.residuals[static_cast<std::size_t>(c)] != 0.0) {
            nonzero = true;
          }
        }
        if (!nonzero) {
          // Keep the node explicit: a zero row would un-label it.
          op.residuals[0] = 0.05;
          op.residuals[1] = -0.05;
        }
        break;
      }
    }
    trace.ops.push_back(std::move(op));
  }
  return trace;
}

}  // namespace dataset
}  // namespace linbp
