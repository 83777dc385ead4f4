#pragma once

/// \file buffering.hpp
/// High-fanout net buffering: nets driving more than `max_fanout` sinks get
/// a buffer tree (the paper notes the tool "could use input buffers to
/// sharpen the slew" — buffering is one of the levers aging-aware synthesis
/// exploits since slews control aging impact).

#include "liberty/library.hpp"
#include "netlist/netlist.hpp"

namespace rw::synth {

struct BufferingOptions {
  int max_fanout = 8;
  std::string buffer_cell = "BUF_X4";
};

/// Returns the number of buffers inserted. The clock net is never buffered
/// (ideal clock assumption, as in the paper's fixed-frequency experiments).
/// Each fixed-point sweep costs O(pins): every net's sink list is built once
/// and updated in place as pins move onto buffers.
/// \throws std::invalid_argument when `max_fanout` < 2 (no split can then
/// bring a net's fan-out down, so the sweeps would never settle).
int buffer_high_fanout(netlist::Module& module, const liberty::Library& library,
                       const BufferingOptions& options = {});

/// The preferred buffer cell, or the strongest identity cell in the library.
/// \throws std::runtime_error when the library has no buffer at all.
const liberty::Cell* find_buffer_cell(const liberty::Library& library,
                                      const std::string& preferred);

}  // namespace rw::synth
