#pragma once

/// \file netlist.hpp
/// Gate-level netlist: instances of library cells connected by single-driver
/// nets. This is what synthesis emits, STA and the gate-level simulators
/// consume, and the dynamic-aging flow annotates.

#include <string>
#include <utility>
#include <vector>

#include "lint/diagnostic.hpp"

namespace rw::netlist {

using NetId = int;
inline constexpr NetId kNoNet = -1;

struct Instance {
  std::string name;
  std::string cell;           ///< library cell name (λ-indexed after annotation)
  std::vector<NetId> fanin;   ///< aligned with the cell's input pins, in pin order
  NetId out = kNoNet;
};

class Module {
 public:
  explicit Module(std::string name);

  [[nodiscard]] const std::string& name() const { return name_; }

  /// \throws std::invalid_argument on duplicate name.
  NetId add_net(const std::string& net_name);
  /// Adds a net with a fresh generated name "<prefix><k>".
  NetId new_net(const std::string& prefix = "n");
  /// Renames a net (the new name must be unused).
  void rename_net(NetId id, const std::string& new_name);
  [[nodiscard]] NetId find_net(const std::string& net_name) const;  ///< kNoNet when absent
  [[nodiscard]] const std::string& net_name(NetId id) const;
  [[nodiscard]] int net_count() const { return static_cast<int>(net_names_.size()); }

  void mark_input(NetId id);
  void mark_output(NetId id);
  void set_clock(NetId id);
  [[nodiscard]] const std::vector<NetId>& inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<NetId>& outputs() const { return outputs_; }
  [[nodiscard]] NetId clock() const { return clock_; }
  [[nodiscard]] bool is_input(NetId id) const;

  /// \throws std::invalid_argument if `out` already has a driver.
  std::size_t add_instance(const std::string& inst_name, const std::string& cell,
                           std::vector<NetId> fanin, NetId out);
  /// Like `add_instance`, but tolerates structurally broken connectivity so
  /// that lint can analyze it: `out` may be `kNoNet` (missing output
  /// connection) or already driven (the extra driver is recorded and
  /// reported by `check()` as a multi-driven net).
  std::size_t add_instance_lenient(const std::string& inst_name, const std::string& cell,
                                   std::vector<NetId> fanin, NetId out);
  [[nodiscard]] const std::vector<Instance>& instances() const { return instances_; }
  [[nodiscard]] std::vector<Instance>& instances() { return instances_; }

  /// (net, instance index) pairs recorded by `add_instance_lenient` for nets
  /// that already had a driver. Empty for well-formed modules.
  [[nodiscard]] const std::vector<std::pair<NetId, int>>& extra_drivers() const {
    return extra_drivers_;
  }

  /// Removes the most recently added instance (must be passed its index;
  /// used to back out trial insertions). Its output net stays, undriven —
  /// callers must ensure nothing references it.
  void remove_last_instance(std::size_t index);

  /// Index of the instance driving `net`, or -1 (primary input / undriven).
  [[nodiscard]] int driver(NetId net) const;
  /// Instance indices with `net` on an input pin. Each call scans every pin
  /// of the module: code that asks for many nets should build its own
  /// fan-out table in one pass.
  [[nodiscard]] std::vector<int> sinks(NetId net) const;
  /// Input pins plus primary-output uses of `net`. Scans every pin, like
  /// `sinks`.
  [[nodiscard]] int fanout_count(NetId net) const;

  /// Structural checks: every non-input net has exactly one driver, every
  /// instance pin references a valid net. Collects *all* violations (rule ids
  /// NL002/NL003/NL006 of the lint catalog) instead of stopping at the first.
  [[nodiscard]] std::vector<lint::Diagnostic> check() const;

  /// \throws std::runtime_error listing every violation found by `check()`.
  void validate() const;

 private:
  /// Slot of `net_name` in `net_slots_`, or of the empty slot where it
  /// would go. `net_slots_` must not be empty.
  [[nodiscard]] std::size_t name_slot(const std::string& net_name) const;
  void index_net(NetId id);
  void unindex_net(NetId id);

  std::string name_;
  std::vector<std::string> net_names_;
  /// Open-addressing (linear probing) index of `net_names_`: a power-of-two
  /// number of slots holding net ids or kNoNet, at most half full. The names
  /// are stored once, in `net_names_`.
  std::vector<NetId> net_slots_;
  std::vector<int> driver_;  ///< instance index or -1, per net
  std::vector<NetId> inputs_;
  std::vector<NetId> outputs_;
  NetId clock_ = kNoNet;
  std::vector<Instance> instances_;
  std::vector<std::pair<NetId, int>> extra_drivers_;  ///< see extra_drivers()
  int gen_counter_ = 0;
};

}  // namespace rw::netlist
