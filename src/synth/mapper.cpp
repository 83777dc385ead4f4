#include "synth/mapper.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <unordered_map>

namespace rw::synth {

namespace {

struct Match {
  const liberty::Cell* cell = nullptr;
  std::array<int, 4> pin_of_leaf{{0, 1, 2, 3}};  ///< leaf index -> cell input-pin index
};

using PatternTable = std::unordered_map<std::uint32_t, std::vector<Match>>;

std::uint32_t pattern_key(unsigned n_leaves, std::uint16_t truth) {
  return (n_leaves << 16) | truth;
}

/// Does the cell's function depend on every input pin?
bool depends_on_all_pins(std::uint64_t truth, int n) {
  for (int bit = 0; bit < n; ++bit) {
    bool depends = false;
    for (unsigned p = 0; p < (1U << n); ++p) {
      if ((p >> bit) & 1U) continue;
      const bool lo = (truth >> p) & 1ULL;
      const bool hi = (truth >> (p | (1U << bit))) & 1ULL;
      if (lo != hi) {
        depends = true;
        break;
      }
    }
    if (!depends) return false;
  }
  return true;
}

bool is_identity(std::uint64_t truth, int n) { return n == 1 && truth == 0b10; }

PatternTable build_pattern_table(const liberty::Library& library) {
  PatternTable table;
  // Smallest drive per family only; gate sizing explores the rest.
  std::map<std::string, const liberty::Cell*> representative;
  for (const auto& cell : library.cells()) {
    if (cell.is_flop || cell.n_inputs() < 1 || cell.n_inputs() > 4) continue;
    auto [it, inserted] = representative.emplace(cell.family, &cell);
    if (!inserted && cell.drive_x < it->second->drive_x) it->second = &cell;
  }
  for (const auto& [family, cell] : representative) {
    const int n = cell->n_inputs();
    if (!depends_on_all_pins(cell->truth, n)) continue;
    if (is_identity(cell->truth, n)) continue;  // buffers handled separately

    // {0,1,2,3} is ascending, i.e. already the first permutation of any
    // prefix — exactly what std::next_permutation below needs to start from.
    std::array<int, 4> perm{{0, 1, 2, 3}};
    do {
      // Leaf pattern p -> cell pattern q with bit perm[i] = bit i of p.
      std::uint16_t permuted = 0;
      for (unsigned p = 0; p < (1U << n); ++p) {
        unsigned q = 0;
        for (int i = 0; i < n; ++i) {
          if ((p >> i) & 1U) q |= 1U << perm[static_cast<std::size_t>(i)];
        }
        if ((cell->truth >> q) & 1ULL) permuted |= static_cast<std::uint16_t>(1U << p);
      }
      Match m;
      m.cell = cell;
      m.pin_of_leaf = perm;
      auto& bucket = table[pattern_key(static_cast<unsigned>(n), permuted)];
      // Same cell can produce the same permuted truth via different
      // permutations (symmetric pins); keep one per cell.
      if (std::none_of(bucket.begin(), bucket.end(),
                       [&](const Match& x) { return x.cell == cell; })) {
        bucket.push_back(m);
      }
    } while (std::next_permutation(perm.begin(), perm.begin() + n));
  }
  return table;
}

/// Estimated worst delay through a given input pin of a cell at a load.
double pin_delay_estimate(const liberty::Cell& cell, int pin_index, double slew_ps,
                          double load_ff) {
  const auto pins = cell.input_pins();
  const liberty::TimingArc* arc = cell.arc_from(pins[static_cast<std::size_t>(pin_index)]->name);
  if (arc == nullptr) return 0.0;
  double d = std::numeric_limits<double>::lowest();
  if (!arc->rise.empty()) d = std::max(d, arc->rise.delay_ps.lookup(slew_ps, load_ff));
  if (!arc->fall.empty()) d = std::max(d, arc->fall.delay_ps.lookup(slew_ps, load_ff));
  // Degradation-aware tables can go negative at extrapolated corners; a
  // cost of < 0 would let the DP "mine" nonsense matches.
  return d == std::numeric_limits<double>::lowest() ? 0.0 : std::max(0.0, d);
}

struct Best {
  double arrival = std::numeric_limits<double>::infinity();
  double area_flow = std::numeric_limits<double>::infinity();
  Cut cut;  ///< the chosen cut, copied out of the per-node cut lists
  Match match;
};

/// The best match of every node. The cut lists live only in here, so they
/// are released before the cover is extracted.
std::vector<Best> choose_matches(const SubjectGraph& graph, const liberty::Library& library,
                                 const MapperOptions& options) {
  const PatternTable patterns = build_pattern_table(library);
  const auto cuts = enumerate_cuts(graph, options.max_cuts);

  // Fanout reference counts for area flow.
  std::vector<int> refs(graph.nodes.size(), 0);
  for (const auto& node : graph.nodes) {
    if (node.a >= 0 && node.kind != SubjectGraph::Kind::kFlopQ) {
      ++refs[static_cast<std::size_t>(node.a)];
    }
    if (node.b >= 0) ++refs[static_cast<std::size_t>(node.b)];
  }
  for (const auto& [name, id] : graph.pos) ++refs[static_cast<std::size_t>(id)];
  for (const int f : graph.flops) {
    const int d = graph.nodes[static_cast<std::size_t>(f)].a;
    if (d >= 0) ++refs[static_cast<std::size_t>(d)];
  }

  // Dynamic program in topological (creation) order. The load each mapped
  // node will see is estimated from its subject fanout count, so candidate
  // delays are read from the NLDM in the region where the gate will
  // actually operate — this is where a degradation-aware library steers
  // choices by OPC, not just by a uniform scale factor.
  std::vector<Best> best(graph.nodes.size());
  const auto node_load_ff = [&](std::size_t i) {
    return options.est_load_per_fanout_ff * std::max(1, refs[i]);
  };
  for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
    const auto& node = graph.nodes[i];
    if (node.kind == SubjectGraph::Kind::kPi || node.kind == SubjectGraph::Kind::kFlopQ) {
      best[i].arrival = 0.0;
      best[i].area_flow = 0.0;
      continue;
    }
    for (const Cut& cut : cuts[i]) {
      if (cut.is_trivial(static_cast<int>(i))) continue;
      const auto it = patterns.find(pattern_key(cut.size, cut.truth));
      if (it == patterns.end()) continue;
      for (const Match& match : it->second) {
        double arrival = 0.0;
        double area_flow = match.cell->area_um2;
        bool feasible = true;
        for (std::size_t l = 0; l < cut.size; ++l) {
          const auto leaf = static_cast<std::size_t>(cut.leaves[l]);
          if (!std::isfinite(best[leaf].arrival)) {
            feasible = false;
            break;
          }
          arrival = std::max(arrival,
                             best[leaf].arrival +
                                 pin_delay_estimate(*match.cell, match.pin_of_leaf[l],
                                                    options.est_slew_ps, node_load_ff(i)));
          area_flow += best[leaf].area_flow / std::max(1, refs[leaf]);
        }
        if (!feasible) continue;
        const double cost = arrival + options.area_tiebreak * area_flow;
        const double best_cost = best[i].arrival + options.area_tiebreak * best[i].area_flow;
        if (cost < best_cost) {
          best[i].arrival = arrival;
          best[i].area_flow = area_flow;
          best[i].cut = cut;
          best[i].match = match;
        }
      }
    }
    if (!std::isfinite(best[i].arrival)) {
      throw std::runtime_error("map_to_library: node without a match (library lacks INV/NAND2?)");
    }
  }
  return best;
}

}  // namespace

netlist::Module map_to_library(const SubjectGraph& graph, const liberty::Library& library,
                               const MapperOptions& options, const std::string& top_name) {
  const std::vector<Best> best = choose_matches(graph, library, options);

  // Cover extraction.
  netlist::Module module(top_name);
  std::vector<netlist::NetId> net_of(graph.nodes.size(), netlist::kNoNet);
  for (const auto& [name, id] : graph.pis) {
    const netlist::NetId n = module.add_net(name);
    module.mark_input(n);
    net_of[static_cast<std::size_t>(id)] = n;
  }
  if (!graph.flops.empty()) {
    module.set_clock(module.add_net(options.clock_name));
  }
  for (const int f : graph.flops) {
    net_of[static_cast<std::size_t>(f)] = module.new_net("q");
  }

  int inst_counter = 0;
  const std::function<netlist::NetId(int)> materialize = [&](int id) -> netlist::NetId {
    auto& net = net_of[static_cast<std::size_t>(id)];
    if (net != netlist::kNoNet) return net;
    const Best& b = best[static_cast<std::size_t>(id)];
    const Cut& cut = b.cut;
    // Fanin nets ordered by the cell's input pins.
    std::vector<netlist::NetId> fanin(cut.size, netlist::kNoNet);
    for (std::size_t l = 0; l < cut.size; ++l) {
      fanin[static_cast<std::size_t>(b.match.pin_of_leaf[l])] = materialize(cut.leaves[l]);
    }
    net = module.new_net();
    module.add_instance("g$" + std::to_string(inst_counter++), b.match.cell->name, fanin, net);
    return net;
  };

  // Flops first (their D cones), then primary outputs.
  const liberty::Cell* dff = nullptr;
  for (const auto& cell : library.cells()) {
    if (cell.is_flop && (dff == nullptr || cell.drive_x < dff->drive_x)) dff = &cell;
  }
  for (const int f : graph.flops) {
    if (dff == nullptr) throw std::runtime_error("map_to_library: library has no flop");
    const int d = graph.nodes[static_cast<std::size_t>(f)].a;
    const netlist::NetId d_net = materialize(d);
    module.add_instance("r$" + std::to_string(inst_counter++), dff->name,
                        {d_net, module.clock()}, net_of[static_cast<std::size_t>(f)]);
  }

  const liberty::Cell* buf = nullptr;
  for (const auto& cell : library.cells()) {
    if (!cell.is_flop && cell.n_inputs() == 1 && is_identity(cell.truth, 1) &&
        (buf == nullptr || cell.drive_x < buf->drive_x)) {
      buf = &cell;
    }
  }
  std::vector<bool> net_is_po(static_cast<std::size_t>(module.net_count()) + graph.pos.size() * 2,
                              false);
  for (const auto& [name, id] : graph.pos) {
    netlist::NetId net = materialize(id);
    const bool taken = module.is_input(net) ||
                       (static_cast<std::size_t>(net) < net_is_po.size() &&
                        net_is_po[static_cast<std::size_t>(net)]);
    if (taken) {
      if (buf == nullptr) throw std::runtime_error("map_to_library: library has no buffer");
      const netlist::NetId fresh = module.new_net();
      module.add_instance("g$" + std::to_string(inst_counter++), buf->name, {net}, fresh);
      net = fresh;
    }
    if (module.find_net(name) == netlist::kNoNet) module.rename_net(net, name);
    module.mark_output(net);
    if (static_cast<std::size_t>(net) >= net_is_po.size()) {
      net_is_po.resize(static_cast<std::size_t>(net) + 1, false);
    }
    net_is_po[static_cast<std::size_t>(net)] = true;
  }

  module.validate();
  return module;
}

}  // namespace rw::synth
