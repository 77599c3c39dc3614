#include "part/partitioner.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <unordered_map>

#include "common/rng.h"

namespace fsd::part {
namespace {

// ---------------------------------------------------------------------------
// Two-way state: side counts per net, gains, balance bookkeeping.
// ---------------------------------------------------------------------------

struct Bisection {
  const Hypergraph* hg;
  std::vector<int8_t> side;       // vertex -> 0/1
  std::vector<int32_t> count[2];  // per-net pin counts on each side
  int64_t weight[2] = {0, 0};
  int64_t cut = 0;

  void Init(const Hypergraph& h, const std::vector<int8_t>& assignment) {
    hg = &h;
    side = assignment;
    count[0].assign(h.num_nets(), 0);
    count[1].assign(h.num_nets(), 0);
    weight[0] = weight[1] = 0;
    for (int32_t v = 0; v < h.num_vertices(); ++v) {
      weight[side[v]] += h.vertex_weight(v);
    }
    cut = 0;
    for (int64_t e = 0; e < h.num_nets(); ++e) {
      h.ForEachPin(e, [&](int32_t v) { ++count[side[v]][e]; });
      if (count[0][e] > 0 && count[1][e] > 0) cut += h.net_cost(e);
    }
  }

  /// Cut-gain of moving v to the other side.
  int64_t Gain(int32_t v) const {
    int64_t gain = 0;
    const int from = side[v];
    const int to = 1 - from;
    hg->ForEachNetOf(v, [&](int64_t e) {
      if (count[from][e] == 1) gain += hg->net_cost(e);  // becomes uncut
      if (count[to][e] == 0) gain -= hg->net_cost(e);    // becomes cut
    });
    return gain;
  }

  void Move(int32_t v) {
    const int from = side[v];
    const int to = 1 - from;
    hg->ForEachNetOf(v, [&](int64_t e) {
      if (count[from][e] == 1 && count[to][e] > 0) cut -= hg->net_cost(e);
      if (count[to][e] == 0 && count[from][e] > 1) cut += hg->net_cost(e);
      --count[from][e];
      ++count[to][e];
    });
    weight[from] -= hg->vertex_weight(v);
    weight[to] += hg->vertex_weight(v);
    side[v] = static_cast<int8_t>(to);
  }
};

// ---------------------------------------------------------------------------
// FM refinement (one pass: every vertex moves at most once; keep best prefix)
// ---------------------------------------------------------------------------

void FmPass(Bisection* bis, int64_t max_weight0, int64_t max_weight1,
            Rng* rng) {
  const Hypergraph& hg = *bis->hg;
  const int32_t n = hg.num_vertices();

  // Lazy-deletion max-heap of (gain, tiebreak, vertex). Pops follow the
  // strict (gain, tiebreak) order alone, so dropping entries that can never
  // be valid again (their vertex has moved) and rebuilding the heap leaves
  // the sequence of valid pops, and with it the partition, unchanged.
  struct Entry {
    int64_t gain;
    uint64_t tiebreak;
    int32_t vertex;
    bool operator<(const Entry& other) const {
      if (gain != other.gain) return gain < other.gain;
      return tiebreak < other.tiebreak;
    }
  };
  std::vector<Entry> heap;
  std::vector<int64_t> gain(n, 0);
  std::vector<uint8_t> moved(n, 0);
  // Queued entries per unmoved vertex, and queued entries of moved ones.
  std::vector<int32_t> outstanding(n, 0);
  size_t dead = 0;

  // Every push draws its tiebreak, so the Rng stream never depends on
  // which entries are later dropped.
  auto push = [&](int32_t v) {
    heap.push_back({gain[v], rng->Next(), v});
    std::push_heap(heap.begin(), heap.end());
    ++outstanding[v];
  };

  // Seed with boundary vertices only (interior moves cannot help first).
  for (int32_t v = 0; v < n; ++v) {
    bool boundary = false;
    hg.ForEachNetOf(v, [&](int64_t e) {
      if (bis->count[0][e] > 0 && bis->count[1][e] > 0) boundary = true;
    });
    if (!boundary) continue;
    gain[v] = bis->Gain(v);
    push(v);
  }

  std::vector<int32_t> move_order;
  const int64_t start_cut = bis->cut;
  int64_t best_cut = start_cut;
  size_t best_prefix = 0;
  // Bounded hill-climb: a full FM pass moves every vertex, which is
  // wasteful on large graphs; stop once the cut has not improved for a
  // while (the best prefix is kept either way).
  const size_t stall_limit =
      std::max<size_t>(1024, static_cast<size_t>(n) / 16);

  // Fiduccia-Mattheyses incremental gain maintenance: moving v from F to T
  // only perturbs the gains of pins on v's nets, by fixed O(1) rules driven
  // by the per-net side counts.
  auto move_with_updates = [&](int32_t v) {
    const int from = bis->side[v];
    const int to = 1 - from;
    hg.ForEachNetOf(v, [&](int64_t e) {
      const int64_t c = hg.net_cost(e);
      const int32_t tc = bis->count[to][e];
      if (tc == 0) {
        // Net was internal to `from`; it becomes cut: every other pin now
        // gains by c from following v.
        hg.ForEachPin(e, [&](int32_t u) {
          if (u == v || moved[u]) return;
          gain[u] += c;
          push(u);
        });
      } else if (tc == 1) {
        // The lone pin on `to` loses its uncut-by-returning gain.
        hg.ForEachPin(e, [&](int32_t u) {
          if (u == v || moved[u] || bis->side[u] != to) return;
          gain[u] -= c;
          push(u);
        });
      }
      const int32_t fc_after = bis->count[from][e] - 1;
      if (fc_after == 0) {
        // Net becomes internal to `to`: followers no longer gain.
        hg.ForEachPin(e, [&](int32_t u) {
          if (u == v || moved[u]) return;
          gain[u] -= c;
          push(u);
        });
      } else if (fc_after == 1) {
        // A single pin remains on `from`: moving it would uncut the net.
        hg.ForEachPin(e, [&](int32_t u) {
          if (u == v || moved[u] || bis->side[u] != from) return;
          gain[u] += c;
          push(u);
        });
      }
    });
    bis->Move(v);
  };

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    const Entry top = heap.back();
    heap.pop_back();
    const int32_t v = top.vertex;
    if (moved[v]) {
      --dead;
      continue;
    }
    --outstanding[v];
    if (top.gain != gain[v]) continue;  // stale; may revive with its gain
    // Balance check for the prospective move.
    const int to = 1 - bis->side[v];
    const int64_t new_weight = bis->weight[to] + hg.vertex_weight(v);
    if ((to == 0 && new_weight > max_weight0) ||
        (to == 1 && new_weight > max_weight1)) {
      continue;
    }
    moved[v] = 1;
    dead += outstanding[v];
    move_with_updates(v);
    if (2 * dead > heap.size()) {
      std::erase_if(heap, [&](const Entry& e) { return moved[e.vertex]; });
      std::make_heap(heap.begin(), heap.end());
      dead = 0;
    }
    move_order.push_back(v);
    if (bis->cut < best_cut) {
      best_cut = bis->cut;
      best_prefix = move_order.size();
    }
    if (move_order.size() - best_prefix > stall_limit) break;
  }

  // Roll back to the best prefix.
  for (size_t i = move_order.size(); i > best_prefix; --i) {
    bis->Move(move_order[i - 1]);
  }
}

// ---------------------------------------------------------------------------
// Coarsening: heavy-connectivity matching
// ---------------------------------------------------------------------------

struct CoarseLevel {
  Hypergraph hg;
  std::vector<int32_t> fine_to_coarse;
};

CoarseLevel Coarsen(const Hypergraph& hg, Rng* rng) {
  const int32_t n = hg.num_vertices();
  std::vector<int32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (int32_t i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng->NextBounded(static_cast<uint64_t>(i) + 1)]);
  }

  std::vector<int32_t> match(n, -1);
  std::vector<double> score(n, 0.0);
  std::vector<int32_t> touched;
  for (int32_t v : order) {
    if (match[v] >= 0) continue;
    touched.clear();
    hg.ForEachNetOf(v, [&](int64_t e) {
      const double w =
          static_cast<double>(hg.net_cost(e)) / (hg.net_size(e) - 1);
      hg.ForEachPin(e, [&](int32_t u) {
        if (u == v || match[u] >= 0) return;
        if (score[u] == 0.0) touched.push_back(u);
        score[u] += w;
      });
    });
    int32_t best = -1;
    double best_score = 0.0;
    for (int32_t u : touched) {
      if (score[u] > best_score) {
        best_score = score[u];
        best = u;
      }
      score[u] = 0.0;
    }
    if (best >= 0) {
      match[v] = best;
      match[best] = v;
    } else {
      match[v] = v;  // stays single
    }
  }

  CoarseLevel level;
  level.fine_to_coarse.assign(n, -1);
  int32_t next = 0;
  for (int32_t v = 0; v < n; ++v) {
    if (level.fine_to_coarse[v] >= 0) continue;
    level.fine_to_coarse[v] = next;
    if (match[v] != v && match[v] >= 0) {
      level.fine_to_coarse[match[v]] = next;
    }
    ++next;
  }

  std::vector<int64_t> weights(next, 0);
  for (int32_t v = 0; v < n; ++v) {
    weights[level.fine_to_coarse[v]] += hg.vertex_weight(v);
  }
  // Project nets; merge duplicates by hashed (sorted pin list) key.
  struct PinsHash {
    size_t operator()(const std::vector<int32_t>& pins) const {
      size_t h = 0x9E3779B97F4A7C15ull;
      for (int32_t p : pins) {
        h ^= static_cast<size_t>(p) + 0x9E3779B9ull + (h << 6) + (h >> 2);
      }
      return h;
    }
  };
  std::unordered_map<std::vector<int32_t>, int64_t, PinsHash> merged;
  merged.reserve(static_cast<size_t>(hg.num_nets()));
  std::vector<int32_t> pin_buf;
  for (int64_t e = 0; e < hg.num_nets(); ++e) {
    pin_buf.clear();
    hg.ForEachPin(e, [&](int32_t v) {
      pin_buf.push_back(level.fine_to_coarse[v]);
    });
    std::sort(pin_buf.begin(), pin_buf.end());
    pin_buf.erase(std::unique(pin_buf.begin(), pin_buf.end()), pin_buf.end());
    if (pin_buf.size() < 2) continue;
    merged[pin_buf] += hg.net_cost(e);
  }
  std::vector<std::vector<int32_t>> nets;
  std::vector<int64_t> costs;
  nets.reserve(merged.size());
  for (auto& [pins, cost] : merged) {
    nets.push_back(pins);
    costs.push_back(cost);
  }
  level.hg = Hypergraph::Build(next, std::move(weights), nets, costs);
  return level;
}

// ---------------------------------------------------------------------------
// Initial bisection: greedy BFS growth, best of several restarts
// ---------------------------------------------------------------------------

std::vector<int8_t> GreedyGrow(const Hypergraph& hg, int64_t target0,
                               int64_t max_weight0, Rng* rng) {
  const int32_t n = hg.num_vertices();
  std::vector<int8_t> side(n, 1);
  if (n == 0) return side;

  std::vector<uint8_t> in_zero(n, 0);
  int64_t weight0 = 0;
  // Priority: vertices strongly connected to side 0.
  std::vector<double> affinity(n, 0.0);
  auto cmp = [&affinity](int32_t a, int32_t b) {
    if (affinity[a] != affinity[b]) return affinity[a] < affinity[b];
    return a < b;
  };
  std::priority_queue<int32_t, std::vector<int32_t>, decltype(cmp)> frontier(
      cmp);

  const int32_t start =
      static_cast<int32_t>(rng->NextBounded(static_cast<uint64_t>(n)));
  affinity[start] = 1.0;
  frontier.push(start);
  std::vector<double> last_pushed(n, 0.0);
  last_pushed[start] = 1.0;

  while (weight0 < target0) {
    int32_t v = -1;
    while (!frontier.empty()) {
      const int32_t top = frontier.top();
      frontier.pop();
      if (!in_zero[top] && last_pushed[top] == affinity[top]) {
        v = top;
        break;
      }
    }
    if (v < 0) {
      // Frontier exhausted (disconnected graph): seed a random new vertex.
      int32_t u = -1;
      for (int32_t probe = 0; probe < n; ++probe) {
        const int32_t c =
            static_cast<int32_t>(rng->NextBounded(static_cast<uint64_t>(n)));
        if (!in_zero[c]) {
          u = c;
          break;
        }
      }
      if (u < 0) break;
      v = u;
    }
    if (weight0 + hg.vertex_weight(v) > max_weight0) {
      if (frontier.empty()) break;
      continue;
    }
    in_zero[v] = 1;
    side[v] = 0;
    weight0 += hg.vertex_weight(v);
    hg.ForEachNetOf(v, [&](int64_t e) {
      const double w =
          static_cast<double>(hg.net_cost(e)) / (hg.net_size(e) - 1);
      hg.ForEachPin(e, [&](int32_t u) {
        if (in_zero[u]) return;
        affinity[u] += w;
        last_pushed[u] = affinity[u];
        frontier.push(u);
      });
    });
  }
  return side;
}

// Bisects `hg` with left-side weight target ratio; returns side assignment.
std::vector<int8_t> Bisect(const Hypergraph& hg, double ratio,
                           const PartitionerOptions& options, Rng* rng) {
  // Multilevel V-cycle.
  std::vector<CoarseLevel> levels;
  const Hypergraph* current = &hg;
  for (int32_t lvl = 0; lvl < options.max_levels &&
                        current->num_vertices() > options.coarsen_to;
       ++lvl) {
    CoarseLevel level = Coarsen(*current, rng);
    if (level.hg.num_vertices() >=
        static_cast<int32_t>(current->num_vertices() * 0.95)) {
      break;  // coarsening stalled
    }
    levels.push_back(std::move(level));
    current = &levels.back().hg;
  }

  const int64_t total = current->total_vertex_weight();
  const int64_t target0 = static_cast<int64_t>(total * ratio);
  auto max_for = [&](const Hypergraph& h, double r) {
    return static_cast<int64_t>(
        std::ceil(h.total_vertex_weight() * r * (1.0 + options.epsilon)));
  };

  // Initial partition on the coarsest hypergraph: best of several grows.
  Bisection best_bis;
  int64_t best_cut = -1;
  std::vector<int8_t> best_side;
  for (int32_t r = 0; r < options.initial_restarts; ++r) {
    std::vector<int8_t> side =
        GreedyGrow(*current, target0, max_for(*current, ratio), rng);
    Bisection bis;
    bis.Init(*current, side);
    for (int32_t pass = 0; pass < options.fm_passes; ++pass) {
      const int64_t before = bis.cut;
      FmPass(&bis, max_for(*current, ratio), max_for(*current, 1.0 - ratio),
             rng);
      if (bis.cut >= before) break;
    }
    if (best_cut < 0 || bis.cut < best_cut) {
      best_cut = bis.cut;
      best_side = bis.side;
    }
  }

  // Uncoarsen with refinement at each level.
  std::vector<int8_t> side = std::move(best_side);
  for (size_t lvl = levels.size(); lvl > 0; --lvl) {
    const CoarseLevel& level = levels[lvl - 1];
    const Hypergraph& fine =
        (lvl - 1 == 0) ? hg : levels[lvl - 2].hg;
    std::vector<int8_t> fine_side(fine.num_vertices());
    for (int32_t v = 0; v < fine.num_vertices(); ++v) {
      fine_side[v] = side[level.fine_to_coarse[v]];
    }
    Bisection bis;
    bis.Init(fine, fine_side);
    for (int32_t pass = 0; pass < options.fm_passes; ++pass) {
      const int64_t before = bis.cut;
      FmPass(&bis, max_for(fine, ratio), max_for(fine, 1.0 - ratio), rng);
      if (bis.cut >= before) break;
    }
    side = std::move(bis.side);
  }

  // No coarsening happened at all: refine the flat problem directly.
  if (levels.empty()) {
    Bisection bis;
    bis.Init(hg, side);
    for (int32_t pass = 0; pass < options.fm_passes; ++pass) {
      const int64_t before = bis.cut;
      FmPass(&bis, max_for(hg, ratio), max_for(hg, 1.0 - ratio), rng);
      if (bis.cut >= before) break;
    }
    side = std::move(bis.side);
  }
  return side;
}

/// Extracts the sub-hypergraph induced by vertices with side == which.
/// Fills `local_to_global`.
Hypergraph SubHypergraph(const Hypergraph& hg, const std::vector<int8_t>& side,
                         int8_t which, std::vector<int32_t>* local_to_global) {
  std::vector<int32_t> global_to_local(hg.num_vertices(), -1);
  local_to_global->clear();
  for (int32_t v = 0; v < hg.num_vertices(); ++v) {
    if (side[v] == which) {
      global_to_local[v] = static_cast<int32_t>(local_to_global->size());
      local_to_global->push_back(v);
    }
  }
  std::vector<int64_t> weights(local_to_global->size());
  for (size_t i = 0; i < local_to_global->size(); ++i) {
    weights[i] = hg.vertex_weight((*local_to_global)[i]);
  }
  std::vector<std::vector<int32_t>> nets;
  std::vector<int64_t> costs;
  std::vector<int32_t> pin_buf;
  for (int64_t e = 0; e < hg.num_nets(); ++e) {
    pin_buf.clear();
    hg.ForEachPin(e, [&](int32_t v) {
      if (global_to_local[v] >= 0) pin_buf.push_back(global_to_local[v]);
    });
    if (pin_buf.size() < 2) continue;
    nets.push_back(pin_buf);
    costs.push_back(hg.net_cost(e));
  }
  return Hypergraph::Build(static_cast<int32_t>(local_to_global->size()),
                           std::move(weights), nets, costs);
}

/// Bisect balances weight, not vertex counts, so on small or lopsided
/// graphs a side can end up with fewer vertices than the parts it must
/// hold. Moves vertices over from the other side, best cut gain first and
/// lowest id on ties, until side 0 has at least `min0` vertices and side 1
/// at least `min1` (min0 + min1 <= vertices). Draws nothing from the Rng.
void FillShortSide(const Hypergraph& hg, int32_t min0, int32_t min1,
                   std::vector<int8_t>* side) {
  const int32_t n = hg.num_vertices();
  const auto count0 =
      static_cast<int32_t>(std::count(side->begin(), side->end(), 0));
  if (count0 >= min0 && n - count0 >= min1) return;
  const int8_t from = count0 < min0 ? 1 : 0;
  int32_t short_count = from == 1 ? count0 : n - count0;
  const int32_t needed = from == 1 ? min0 : min1;
  Bisection bis;
  bis.Init(hg, *side);
  for (; short_count < needed; ++short_count) {
    int32_t best = -1;
    int64_t best_gain = 0;
    for (int32_t v = 0; v < n; ++v) {
      if (bis.side[v] != from) continue;
      const int64_t gain = bis.Gain(v);
      if (best < 0 || gain > best_gain) {
        best = v;
        best_gain = gain;
      }
    }
    bis.Move(best);
  }
  *side = std::move(bis.side);
}

void RecursiveBisect(const Hypergraph& hg, int32_t num_parts,
                     int32_t part_offset, const PartitionerOptions& options,
                     Rng* rng, const std::vector<int32_t>& to_global,
                     std::vector<int32_t>* assignment) {
  if (num_parts == 1) {
    for (int32_t v = 0; v < hg.num_vertices(); ++v) {
      (*assignment)[to_global[v]] = part_offset;
    }
    return;
  }
  const int32_t left_parts = (num_parts + 1) / 2;
  const double ratio = static_cast<double>(left_parts) / num_parts;
  std::vector<int8_t> side = Bisect(hg, ratio, options, rng);
  FillShortSide(hg, left_parts, num_parts - left_parts, &side);

  std::vector<int32_t> left_map;
  std::vector<int32_t> right_map;
  Hypergraph left = SubHypergraph(hg, side, 0, &left_map);
  Hypergraph right = SubHypergraph(hg, side, 1, &right_map);
  for (auto& v : left_map) v = to_global[v];
  for (auto& v : right_map) v = to_global[v];
  RecursiveBisect(left, left_parts, part_offset, options, rng, left_map,
                  assignment);
  RecursiveBisect(right, num_parts - left_parts, part_offset + left_parts,
                  options, rng, right_map, assignment);
}

double Imbalance(const Hypergraph& hg, const std::vector<int32_t>& assignment,
                 int32_t num_parts) {
  std::vector<int64_t> weights(num_parts, 0);
  for (int32_t v = 0; v < hg.num_vertices(); ++v) {
    weights[assignment[v]] += hg.vertex_weight(v);
  }
  const double ideal =
      static_cast<double>(hg.total_vertex_weight()) / num_parts;
  int64_t max_weight = 0;
  for (int64_t w : weights) max_weight = std::max(max_weight, w);
  return ideal > 0 ? static_cast<double>(max_weight) / ideal - 1.0 : 0.0;
}

}  // namespace

std::string_view PartitionSchemeName(PartitionScheme scheme) {
  switch (scheme) {
    case PartitionScheme::kHypergraph:
      return "HGP-DNN";
    case PartitionScheme::kRandom:
      return "RP";
    case PartitionScheme::kBlock:
      return "BLOCK";
  }
  return "unknown";
}

Result<PartitionResult> PartitionHypergraph(
    const Hypergraph& hg, int32_t num_parts,
    const PartitionerOptions& options) {
  if (num_parts < 1) return Status::InvalidArgument("num_parts must be >= 1");
  if (num_parts > hg.num_vertices()) {
    return Status::InvalidArgument("more parts than vertices");
  }
  Rng rng(options.seed);
  PartitionResult result;
  result.num_parts = num_parts;
  result.assignment.assign(hg.num_vertices(), 0);
  std::vector<int32_t> identity(hg.num_vertices());
  std::iota(identity.begin(), identity.end(), 0);
  // Imbalance compounds multiplicatively across the bisection levels, so
  // each level gets the depth-th root of the global tolerance.
  PartitionerOptions scheduled = options;
  const double depth =
      std::max(1.0, std::ceil(std::log2(static_cast<double>(num_parts))));
  scheduled.epsilon = std::pow(1.0 + options.epsilon, 1.0 / depth) - 1.0;
  RecursiveBisect(hg, num_parts, 0, scheduled, &rng, identity,
                  &result.assignment);
  result.cut_cost = hg.ConnectivityMinusOne(result.assignment, num_parts);
  result.imbalance = Imbalance(hg, result.assignment, num_parts);
  return result;
}

PartitionResult PartitionRandom(const Hypergraph& hg, int32_t num_parts,
                                uint64_t seed) {
  Rng rng(seed);
  PartitionResult result;
  result.num_parts = num_parts;
  result.assignment.assign(hg.num_vertices(), 0);
  std::vector<int32_t> order(hg.num_vertices());
  std::iota(order.begin(), order.end(), 0);
  for (int32_t i = hg.num_vertices() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBounded(static_cast<uint64_t>(i) + 1)]);
  }
  // Round-robin over shuffled order: random placement, balanced counts.
  for (int32_t i = 0; i < hg.num_vertices(); ++i) {
    result.assignment[order[i]] = i % num_parts;
  }
  result.cut_cost = hg.ConnectivityMinusOne(result.assignment, num_parts);
  result.imbalance = Imbalance(hg, result.assignment, num_parts);
  return result;
}

PartitionResult PartitionBlock(const Hypergraph& hg, int32_t num_parts) {
  PartitionResult result;
  result.num_parts = num_parts;
  result.assignment.assign(hg.num_vertices(), 0);
  const int64_t total = hg.total_vertex_weight();
  int64_t acc = 0;
  for (int32_t v = 0; v < hg.num_vertices(); ++v) {
    int32_t part = static_cast<int32_t>(acc * num_parts / std::max<int64_t>(
        total, 1));
    part = std::min(part, num_parts - 1);
    result.assignment[v] = part;
    acc += hg.vertex_weight(v);
  }
  result.cut_cost = hg.ConnectivityMinusOne(result.assignment, num_parts);
  result.imbalance = Imbalance(hg, result.assignment, num_parts);
  return result;
}

}  // namespace fsd::part
