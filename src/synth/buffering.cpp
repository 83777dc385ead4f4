#include "synth/buffering.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace rw::synth {

namespace {

/// One sink pin position: (instance index, pin index).
using SinkPin = std::pair<std::size_t, std::size_t>;

}  // namespace

const liberty::Cell* find_buffer_cell(const liberty::Library& library,
                                      const std::string& preferred) {
  if (const liberty::Cell* c = library.find(preferred)) return c;
  // Fall back to the strongest identity-function cell available.
  const liberty::Cell* best = nullptr;
  for (const auto& cell : library.cells()) {
    if (cell.is_flop || cell.n_inputs() != 1 || cell.truth != 0b10) continue;
    if (best == nullptr || cell.drive_x > best->drive_x) best = &cell;
  }
  if (best == nullptr) {
    throw std::runtime_error("find_buffer_cell: library has no buffer/identity cell");
  }
  return best;
}

int buffer_high_fanout(netlist::Module& module, const liberty::Library& library,
                       const BufferingOptions& options) {
  if (options.max_fanout < 2) {
    throw std::invalid_argument("buffer_high_fanout: max_fanout must be at least 2");
  }
  const std::string buffer_cell = find_buffer_cell(library, options.buffer_cell)->name;
  const auto mf = static_cast<std::size_t>(options.max_fanout);

  // Every net's sink pins in (instance, pin) order and its primary-output
  // uses, built once and kept in step with each rewire below, so a sweep
  // costs O(pins) instead of one whole-netlist scan per net.
  std::vector<std::vector<SinkPin>> sinks(static_cast<std::size_t>(module.net_count()));
  std::vector<std::size_t> po_uses(sinks.size(), 0);
  for (std::size_t i = 0; i < module.instances().size(); ++i) {
    const auto& fanin = module.instances()[i].fanin;
    for (std::size_t p = 0; p < fanin.size(); ++p) {
      sinks[static_cast<std::size_t>(fanin[p])].emplace_back(i, p);
    }
  }
  for (const netlist::NetId po : module.outputs()) ++po_uses[static_cast<std::size_t>(po)];

  int inserted = 0;
  int counter = 0;
  // Iterate to a fixed point: buffer outputs can themselves exceed the
  // limit when a net is split into many groups.
  bool changed = true;
  while (changed) {
    changed = false;
    for (netlist::NetId net = 0; net < module.net_count(); ++net) {
      if (net == module.clock()) continue;
      // Moved out: adding buffered nets below grows `sinks`.
      std::vector<SinkPin> pins = std::move(sinks[static_cast<std::size_t>(net)]);
      // Primary-output uses stay on the net and count against the limit.
      const std::size_t po = po_uses[static_cast<std::size_t>(net)];
      const std::size_t total = pins.size();
      if (total + po <= mf) {
        sinks[static_cast<std::size_t>(net)] = std::move(pins);
        continue;
      }

      // Keep some sinks on the original net and hand the rest to buffers in
      // groups of max_fanout, such that kept + buffers + POs <= max_fanout.
      std::size_t keep = 0;
      for (std::size_t nbuf = 1; nbuf + po < mf; ++nbuf) {
        const std::size_t candidate_keep = mf - nbuf - po;
        if (candidate_keep + nbuf * mf >= total) {
          keep = candidate_keep;
          break;
        }
      }
      // The kept pins stay first; the new buffers have the largest instance
      // indices, so the list stays in (instance, pin) order.
      std::vector<SinkPin> kept(pins.begin(), pins.begin() + static_cast<std::ptrdiff_t>(keep));
      for (std::size_t cursor = keep; cursor < total; cursor += mf) {
        const netlist::NetId buffered = module.new_net("buf");
        kept.emplace_back(module.add_instance("zbuf$" + std::to_string(counter++), buffer_cell,
                                              {net}, buffered),
                          0);
        ++inserted;
        const auto first = pins.begin() + static_cast<std::ptrdiff_t>(cursor);
        const auto last = pins.begin() + static_cast<std::ptrdiff_t>(std::min(total, cursor + mf));
        for (auto s = first; s != last; ++s) {
          module.instances()[s->first].fanin[s->second] = buffered;
        }
        sinks.emplace_back(first, last);
        po_uses.push_back(0);
      }
      sinks[static_cast<std::size_t>(net)] = std::move(kept);
      changed = true;
    }
  }
  return inserted;
}

}  // namespace rw::synth
