// The unified query surface: every way of asking the index a question —
// the CLI, the benches, QueryBatch, and the `qbs serve` wire protocol —
// speaks QueryRequest/QueryResponse. The request carries the pair, the
// answer mode, an optional distance budget, and behavior flags; the
// response carries the answer payload (distance + shortest-path-graph
// edges), the per-query work counters, and serving metadata (cache hit).
//
// The answer payload of a response is a pure function of
// (index, u, v, mode, budget): the hot-pair result cache keys on exactly
// those fields and replays the payload bit-identically, which is what lets
// the serving layer treat hits and misses as interchangeable.

#ifndef QBS_CORE_QUERY_API_H_
#define QBS_CORE_QUERY_API_H_

#include <cstdint>

#include "core/search_stats.h"
#include "graph/graph.h"
#include "graph/spg.h"

namespace qbs {

/// What the caller wants back.
enum class QueryMode : uint8_t {
  /// Distance only: the response's SPG carries d_G(u, v) and no edges.
  kDistance = 0,
  /// The full shortest path graph (Definition 2.2).
  kSpg = 1,
};

/// QueryRequest::flags bits.
/// Serving only: never answer this request from (or insert it into) the
/// hot-pair result cache. The index itself ignores it.
inline constexpr uint32_t kQueryFlagNoCache = 1u << 0;

/// QueryRequest::deadline_ms value meaning "no deadline" (the default).
/// Any other value — including 0, which is "already expired" — is a
/// relative budget in milliseconds, measured by the server from the moment
/// the request frame is decoded. A request whose deadline runs out before
/// its query starts executing is answered with a kDeadlineExceeded error
/// instead of being executed late.
inline constexpr uint32_t kNoDeadline = 0xFFFFFFFFu;

/// QueryResponse::flags bits.
/// The label lower bound certified d_G(u, v) > budget before any search
/// ran: the distance is *unknown* (reported kUnreachable) but provably
/// beyond the budget.
inline constexpr uint32_t kResponseFlagBudgetPruned = 1u << 0;
/// The query resolved and d_G(u, v) > budget: the distance is exact but
/// the SPG edges are omitted from the payload. A disconnected pair that
/// the labels do not prune resolves to kUnreachable without this flag.
inline constexpr uint32_t kResponseFlagBudgetExceeded = 1u << 1;
/// Graceful degradation: an overloaded server answered from the labelling
/// alone instead of queueing the query. spg.distance carries the label
/// UPPER bound on d_G(u, v) (kUnreachable when the labels certify
/// nothing), degraded_lower the matching lower bound, and spg.edges is
/// empty. Degraded answers are never cached and never compare
/// SameAnswer-equal to an exact answer (the flag differs by design).
inline constexpr uint32_t kResponseFlagDegraded = 1u << 2;

struct QueryRequest {
  VertexId u = 0;
  VertexId v = 0;
  QueryMode mode = QueryMode::kSpg;
  /// 0 = unlimited. Otherwise the caller only cares about pairs within
  /// `budget` hops: a pair certified (label lower bound) or resolved to be
  /// farther answers without SPG edges and with the corresponding response
  /// flag set.
  uint32_t budget = 0;
  /// kQueryFlag* bits.
  uint32_t flags = 0;
  /// Serving only: relative deadline in milliseconds (kNoDeadline = none;
  /// 0 = already expired). Not part of the answer payload — the result
  /// cache ignores it — but enforced by the server at every admission
  /// boundary. The index itself ignores it.
  uint32_t deadline_ms = kNoDeadline;

  QueryRequest() = default;
  QueryRequest(VertexId u_in, VertexId v_in, QueryMode m = QueryMode::kSpg,
               uint32_t budget_in = 0, uint32_t flags_in = 0,
               uint32_t deadline_ms_in = kNoDeadline)
      : u(u_in),
        v(v_in),
        mode(m),
        budget(budget_in),
        flags(flags_in),
        deadline_ms(deadline_ms_in) {}

  friend bool operator==(const QueryRequest& a, const QueryRequest& b) {
    return a.u == b.u && a.v == b.v && a.mode == b.mode &&
           a.budget == b.budget && a.flags == b.flags &&
           a.deadline_ms == b.deadline_ms;
  }
};

struct QueryResponse {
  /// The answer payload. spg.u / spg.v echo the request orientation;
  /// spg.distance is d_G(u, v) (kUnreachable when disconnected or budget-
  /// pruned); spg.edges is empty for mode == kDistance and for over-budget
  /// answers.
  ShortestPathGraph spg;
  /// Work counters for this query. Diagnostic: a cache hit performs no
  /// search, so stats are NOT part of the cached payload.
  SearchStats stats;
  /// kResponseFlag* bits. Part of the deterministic payload (a budget-
  /// pruned answer must replay as budget-pruned).
  uint32_t flags = 0;
  /// Serving metadata: answered from the hot-pair result cache. Never set
  /// by the index itself.
  bool cache_hit = false;
  /// Lower bound companion to a kResponseFlagDegraded answer (spg.distance
  /// is the upper bound). Meaningless — and zero — otherwise.
  uint32_t degraded_lower = 0;

  uint32_t distance() const { return spg.distance; }
  bool degraded() const { return (flags & kResponseFlagDegraded) != 0; }

  /// True iff two responses carry the same deterministic answer payload —
  /// everything except the diagnostic stats and the cache_hit bit. This is
  /// the bit-identity the result cache guarantees.
  friend bool SameAnswer(const QueryResponse& a, const QueryResponse& b) {
    return a.spg == b.spg && a.flags == b.flags;
  }
};

}  // namespace qbs

#endif  // QBS_CORE_QUERY_API_H_
