#pragma once

/// \file checks.hpp
/// The benchmark's correctness checks. Each is made apart from the code it
/// checks (its own co-simulation loop, its own table scan, its own area sum)
/// or is a property the method must have; none compares against stored
/// numbers. selftest.cpp shows that every check fails on an input broken on
/// purpose.

#include <cstdint>
#include <string>
#include <vector>

#include "liberty/library.hpp"
#include "netlist/netlist.hpp"
#include "sta/graph.hpp"
#include "stress/interval.hpp"
#include "synth/ir.hpp"
#include "synth/synthesizer.hpp"

namespace rwbench {

/// Non-finite table entries and output slews that are not > 0.
std::vector<std::string> table_problems(const rw::liberty::Cell& cell);

/// Load-axis dips: a delay or slew that decreases as the load grows (the
/// rule LB002 states), at most one finding per table.
std::vector<std::string> load_dips(const rw::liberty::Cell& cell);

/// Empty when `a` and `b` are bitwise identical (names, pins, areas, flop
/// constraints, every axis point and table entry); else the first difference.
std::string cell_difference(const rw::liberty::Cell& a, const rw::liberty::Cell& b);

/// Seeded random-vector co-simulation of the mapped `module` (a
/// logicsim::CycleSimulator over `library`) against rw::synth::IrSimulator on
/// the source `ir`, lock-step from reset. Empty when every output agrees on
/// every cycle; else the first mismatch.
std::string cosim_mismatch(const rw::synth::Ir& ir, const rw::netlist::Module& module,
                           const rw::liberty::Library& library, std::uint64_t seed, int cycles);

/// Empty when the reported critical path equals a fresh rw::sta::Sta of the
/// module and the reported area equals the sum of the instances' cell areas.
std::string cp_area_mismatch(const rw::synth::SynthesisResult& result, const rw::liberty::Library& library,
                             const rw::sta::StaOptions& options);

/// Empty when the two modules are the same netlist (nets, ports, instances).
std::string module_difference(const rw::netlist::Module& a, const rw::netlist::Module& b);

/// True when `value` lies inside `interval` (with a 1e-6 ps tolerance).
bool contained(double value, const rw::stress::RealInterval& interval);

}  // namespace rwbench
