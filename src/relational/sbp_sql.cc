#include "src/relational/sbp_sql.h"

#include <algorithm>
#include <utility>

#include "src/relational/ops.h"
#include "src/util/check.h"

namespace linbp {
namespace {

// (v, g) table from a (v)-keyed table plus a constant geodesic number.
Table WithConstantGeodesic(const Table& nodes, std::int64_t g) {
  return WithComputedIntColumn(
      nodes, "g", [g](const Table&, std::int64_t) { return g; });
}

}  // namespace

SbpSql::SbpSql(Table a, Table e, Table h)
    : a_(std::move(a)),
      h_(std::move(h)),
      g_({"v", "g"}, {ColumnType::kInt, ColumnType::kInt}),
      b_({"v", "c", "b"},
         {ColumnType::kInt, ColumnType::kInt, ColumnType::kDouble}) {
  // Algorithm 2, line 1: G(v, 0) :- E(v, _, _);  B(v, c, b) :- E(v, c, b).
  g_ = WithConstantGeodesic(DistinctKeys(e, {"v"}), 0);
  UnionAllInPlace(&b_, e);

  for (std::int64_t i = 1;; ++i) {
    // Line 4: G(t, i) :- G(s, i-1), A(s, t, _), not G(t, _).
    const Table frontier = Rename(
        Project(Filter(g_,
                       [i](const Table& t, std::int64_t r) {
                         return t.IntAt(t.ColumnIndex("g"), r) == i - 1;
                       }),
                {"v"}),
        {"v"}, {"s"});
    if (frontier.num_rows() == 0) break;
    const Table reached =
        DistinctKeys(EquiJoin(frontier, a_, {"s"}, {"s"}), {"t"});
    const Table fresh = AntiJoin(reached, g_, {"t"}, {"v"});
    if (fresh.num_rows() == 0) break;
    const Table gn = WithConstantGeodesic(Rename(fresh, {"t"}, {"v"}), i);
    UnionAllInPlace(&g_, gn);
    // Line 5: beliefs of the new nodes from parents at level i-1.
    RecomputeBeliefsFor(gn);
  }
}

void SbpSql::RecomputeBeliefsFor(const Table& frontier) {
  if (frontier.num_rows() == 0) return;
  // Edges into the target nodes, annotated with the parent's geodesic g and
  // the target's geodesic t_g, keeping geodesic-increasing edges only:
  // B(t, c2, sum(w*b*h)) :- Gn(t, gt), A(s, t, w), B(s, c1, b),
  //                         G(s, gt - 1), H(c1, c2, h).
  const Table into_targets = SemiJoin(a_, frontier, {"t"}, {"v"});
  const Table with_parent_g = EquiJoin(into_targets, g_, {"s"}, {"v"});
  const Table with_target_g =
      EquiJoin(with_parent_g, frontier, {"t"}, {"v"}, "t_");
  const Table geodesic_edges =
      Filter(with_target_g, [](const Table& t, std::int64_t r) {
        return t.IntAt(t.ColumnIndex("g"), r) ==
               t.IntAt(t.ColumnIndex("t_g"), r) - 1;
      });
  const Table with_beliefs = EquiJoin(geodesic_edges, b_, {"s"}, {"v"});
  const Table with_coupling = EquiJoin(with_beliefs, h_, {"c"}, {"c1"});
  const Table product = WithComputedDoubleColumn(
      with_coupling, "p", [](const Table& t, std::int64_t r) {
        return t.DoubleAt(t.ColumnIndex("w"), r) *
               t.DoubleAt(t.ColumnIndex("b"), r) *
               t.DoubleAt(t.ColumnIndex("h"), r);
      });
  const Table bn = Rename(
      GroupBy(product, {"t", "c2"}, {{AggregateOp::kSum, "p", "b"}}),
      {"t", "c2"}, {"v", "c"});
  // Replace the beliefs of every frontier node (a recomputed node with no
  // contributing parents must lose its stale rows, so delete by frontier,
  // not by bn).
  b_ = AntiJoin(b_, frontier, {"v"}, {"v"});
  UnionAllInPlace(&b_, bn);
}

void SbpSql::AddExplicitBeliefs(const Table& en) {
  // Lines 1-2: Gn(v, 0) and Bn(v, c, b) from En, upserted into G and B.
  Table gn = WithConstantGeodesic(DistinctKeys(en, {"v"}), 0);
  Upsert(&g_, gn, {"v"});
  b_ = AntiJoin(b_, en, {"v"}, {"v"});
  UnionAllInPlace(&b_, en);

  for (std::int64_t i = 1;; ++i) {
    // Line 5: Gn(t, i) :- Gn(s, i-1), A(s, t, _), not (G(t, gt), gt < i).
    const Table frontier = Rename(Project(gn, {"v"}), {"v"}, {"s"});
    const Table reached =
        DistinctKeys(EquiJoin(frontier, a_, {"s"}, {"s"}), {"t"});
    const Table settled = Filter(g_, [i](const Table& t, std::int64_t r) {
      return t.IntAt(t.ColumnIndex("g"), r) < i;
    });
    const Table next = AntiJoin(reached, settled, {"t"}, {"v"});
    if (next.num_rows() == 0) break;
    gn = WithConstantGeodesic(Rename(next, {"t"}, {"v"}), i);
    Upsert(&g_, gn, {"v"});
    // Line 6: recompute beliefs of the updated nodes.
    RecomputeBeliefsFor(gn);
  }
}

void SbpSql::AddEdges(const Table& an) {
  // Line 1: insert both directions into A.
  Table directed = an;
  const Table reversed = Rename(an, {"s", "t"}, {"t_orig", "s_orig"});
  {
    Table swapped = Rename(reversed, {"s_orig", "t_orig"}, {"s", "t"});
    UnionAllInPlace(&directed, Project(swapped, {"s", "t", "w"}));
  }
  UnionAllInPlace(&a_, directed);

  // Line 2 (corrected guard, see sbp_sql.h): seed nodes are the targets of
  // new edges whose source is closer to explicit beliefs:
  //   Gn(t, min(gs + 1)) :- G(s, gs), An(s, t, _), not (G(t, gt), gt <= gs).
  Table frontier = directed;  // (s, t, w) rows; sources annotated below
  for (std::int64_t round = 0;; ++round) {
    // Annotate sources with gs. (First round: the new edges; later rounds:
    // all out-edges of the previously updated nodes.)
    const Table with_gs = EquiJoin(frontier, g_, {"s"}, {"v"});
    if (with_gs.num_rows() == 0) break;
    // Split targets by reachability to evaluate "gt <= gs or missing".
    const Table matched = EquiJoin(with_gs, g_, {"t"}, {"v"}, "t_");
    const Table improving =
        Filter(matched, [](const Table& t, std::int64_t r) {
          return t.IntAt(t.ColumnIndex("t_g"), r) >
                 t.IntAt(t.ColumnIndex("g"), r);
        });
    const Table unreachable = AntiJoin(with_gs, g_, {"t"}, {"v"});
    // Candidate geodesic numbers gs + 1, minimized per target.
    auto candidate = [](const Table& t, std::int64_t r) {
      return t.IntAt(t.ColumnIndex("g"), r) + 1;
    };
    Table candidates = Project(
        WithComputedIntColumn(improving, "gn", candidate), {"t", "gn"});
    UnionAllInPlace(
        &candidates,
        Project(WithComputedIntColumn(unreachable, "gn", candidate),
                {"t", "gn"}));
    if (candidates.num_rows() == 0) break;
    Table gn_raw =
        GroupBy(candidates, {"t"}, {{AggregateOp::kMin, "gn", "gn"}});
    // Final geodesic: min(candidate, existing gt) — an equal-level wave
    // keeps gt and only refreshes beliefs.
    const Table known = EquiJoin(gn_raw, g_, {"t"}, {"v"}, "old_");
    Table gn = Project(
        Rename(WithComputedIntColumn(
                   known, "gmin",
                   [](const Table& t, std::int64_t r) {
                     return std::min(t.IntAt(t.ColumnIndex("gn"), r),
                                     t.IntAt(t.ColumnIndex("g"), r));
                   }),
               {"t"}, {"v"}),
        {"v", "gmin"});
    gn = Rename(gn, {"gmin"}, {"g"});
    {
      const Table fresh = AntiJoin(gn_raw, g_, {"t"}, {"v"});
      UnionAllInPlace(
          &gn, Rename(Project(fresh, {"t", "gn"}), {"t", "gn"}, {"v", "g"}));
    }
    Upsert(&g_, gn, {"v"});
    RecomputeBeliefsFor(gn);
    // Next wave: all out-edges of the nodes just updated.
    frontier = SemiJoin(a_, Rename(gn, {"v"}, {"s"}), {"s"}, {"s"});
  }
}

}  // namespace linbp
