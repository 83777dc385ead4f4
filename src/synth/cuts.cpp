#include "synth/cuts.hpp"

#include <algorithm>
#include <stdexcept>

namespace rw::synth {

namespace {

/// Merges two sorted leaf sets; returns false if the union exceeds 4.
bool merge_leaves(const Cut& a, const Cut& b, Cut& out) {
  std::size_t ia = 0;
  std::size_t ib = 0;
  std::uint8_t n = 0;
  while (ia < a.size || ib < b.size) {
    int next;
    if (ia < a.size && ib < b.size) {
      if (a.leaves[ia] == b.leaves[ib]) {
        next = a.leaves[ia];
        ++ia;
        ++ib;
      } else if (a.leaves[ia] < b.leaves[ib]) {
        next = a.leaves[ia++];
      } else {
        next = b.leaves[ib++];
      }
    } else if (ia < a.size) {
      next = a.leaves[ia++];
    } else {
      next = b.leaves[ib++];
    }
    if (n == 4) return false;
    out.leaves[n++] = next;
  }
  out.size = n;
  return true;
}

Cut trivial_cut(int node) {
  Cut c;
  c.leaves[0] = node;
  c.size = 1;
  c.truth = 0b10;  // identity over one leaf
  return c;
}

bool same_leaves(const Cut& a, const Cut& b) {
  return a.size == b.size &&
         std::equal(a.leaves.begin(), a.leaves.begin() + a.size, b.leaves.begin());
}

/// True when `a`'s leaf set is a subset of `b`'s (then b is dominated).
bool subset_of(const Cut& a, const Cut& b) {
  if (a.size > b.size) return false;
  std::size_t ib = 0;
  for (std::size_t ia = 0; ia < a.size; ++ia) {
    while (ib < b.size && b.leaves[ib] < a.leaves[ia]) ++ib;
    if (ib == b.size || b.leaves[ib] != a.leaves[ia]) return false;
  }
  return true;
}

}  // namespace

std::uint16_t expand_truth(std::uint16_t truth, const Cut& from, const Cut& to) {
  // Position of each `from` leaf within `to`.
  std::array<int, 4> pos{};
  for (std::size_t i = 0; i < from.size; ++i) {
    const auto it = std::find(to.leaves.begin(), to.leaves.begin() + to.size, from.leaves[i]);
    if (it == to.leaves.begin() + to.size) {
      throw std::invalid_argument("expand_truth: 'from' is not a subset of 'to'");
    }
    pos[i] = static_cast<int>(it - to.leaves.begin());
  }
  std::uint16_t out = 0;
  const unsigned n_to = 1U << to.size;
  for (unsigned p = 0; p < n_to; ++p) {
    unsigned q = 0;
    for (std::size_t i = 0; i < from.size; ++i) {
      if ((p >> pos[i]) & 1U) q |= 1U << i;
    }
    if ((truth >> q) & 1U) out |= static_cast<std::uint16_t>(1U << p);
  }
  return out;
}

std::vector<std::vector<Cut>> enumerate_cuts(const SubjectGraph& graph, int max_cuts) {
  std::vector<std::vector<Cut>> cuts(graph.nodes.size());

  const auto add_cut = [&](std::vector<Cut>& list, const Cut& cut) {
    for (const auto& existing : list) {
      if (same_leaves(existing, cut)) return;        // duplicate leaf set
      if (subset_of(existing, cut)) return;          // dominated
    }
    list.push_back(cut);
  };

  // Each node's list is built in one reused scratch vector and stored as an
  // exact-size copy: growth slack would otherwise stay in every stored list.
  std::vector<Cut> list;
  for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
    const auto& node = graph.nodes[i];
    list.clear();
    list.push_back(trivial_cut(static_cast<int>(i)));

    if (node.kind == SubjectGraph::Kind::kInv) {
      for (const Cut& ca : cuts[static_cast<std::size_t>(node.a)]) {
        Cut c = ca;
        const unsigned bits = 1U << c.size;
        c.truth = static_cast<std::uint16_t>(~c.truth & ((1U << bits) - 1U));
        add_cut(list, c);
        if (static_cast<int>(list.size()) >= max_cuts) break;
      }
    } else if (node.kind == SubjectGraph::Kind::kNand) {
      for (const Cut& ca : cuts[static_cast<std::size_t>(node.a)]) {
        for (const Cut& cb : cuts[static_cast<std::size_t>(node.b)]) {
          Cut merged;
          if (!merge_leaves(ca, cb, merged)) continue;
          const std::uint16_t ta = expand_truth(ca.truth, ca, merged);
          const std::uint16_t tb = expand_truth(cb.truth, cb, merged);
          const unsigned bits = 1U << merged.size;
          merged.truth = static_cast<std::uint16_t>(~(ta & tb) & ((1U << bits) - 1U));
          add_cut(list, merged);
          if (static_cast<int>(list.size()) >= max_cuts) break;
        }
        if (static_cast<int>(list.size()) >= max_cuts) break;
      }
    }
    // Prefer small cuts: keeps the best candidates when truncated.
    std::sort(list.begin(), list.end(), [&](const Cut& x, const Cut& y) {
      if (x.is_trivial(static_cast<int>(i)) != y.is_trivial(static_cast<int>(i))) {
        return x.is_trivial(static_cast<int>(i));
      }
      return x.size < y.size;
    });
    if (static_cast<int>(list.size()) > max_cuts) list.resize(static_cast<std::size_t>(max_cuts));
    cuts[i] = std::vector<Cut>(list.begin(), list.end());
  }
  return cuts;
}

}  // namespace rw::synth
