// SBP as relational operator plans (Algorithms 2-4 / Sect. 6.3, App. C).
//
// The state mirrors the paper's schema: besides A / E / H it keeps
//   G(v, g)   geodesic number per reachable node,
//   B(v, c, b) final residual beliefs (rows absent = residual 0).
// Initial assignment (Algorithm 2) visits nodes level by level; the batch
// updates (Algorithms 3 and 4) touch only affected nodes. Algorithm 4 uses
// the corrected guard g_t > g_s: the paper's literal Datalog can
// re-target nodes with equal geodesic numbers (see
// src/core/sbp_incremental.h, which corrects it the same way).

#ifndef LINBP_RELATIONAL_SBP_SQL_H_
#define LINBP_RELATIONAL_SBP_SQL_H_

#include "src/relational/table.h"

namespace linbp {

/// Dynamic SBP computation state over relational tables.
class SbpSql {
 public:
  /// Runs Algorithm 2 on adjacency table `a` (schema A(s,t,w)), explicit
  /// beliefs `e` (E(v,c,b)), and coupling table `h` (H(c1,c2,h)).
  SbpSql(Table a, Table e, Table h);

  /// Algorithm 3: batch-adds explicit beliefs En(v, c, b); existing
  /// explicit nodes in En get their beliefs replaced.
  void AddExplicitBeliefs(const Table& en);

  /// Algorithm 4: batch-adds undirected edges An(s, t, w); both directions
  /// are inserted into A.
  void AddEdges(const Table& an);

  /// Final beliefs B(v, c, b).
  const Table& beliefs() const { return b_; }

  /// Geodesic numbers G(v, g) (reachable nodes only).
  const Table& geodesic() const { return g_; }

  /// Adjacency table A(s, t, w).
  const Table& adjacency() const { return a_; }

 private:
  // B(t, c2, sum(w*b*h)) for the target nodes in `frontier` (schema (v,g)),
  // reading parents at geodesic g-1 from the *current* G and B; result is
  // upserted into B keyed on v.
  void RecomputeBeliefsFor(const Table& frontier);

  Table a_;
  Table h_;
  Table g_;
  Table b_;
};

}  // namespace linbp

#endif  // LINBP_RELATIONAL_SBP_SQL_H_
