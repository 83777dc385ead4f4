#include "netlist/netlist.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace rw::netlist {

namespace {

std::size_t name_hash(const std::string& net_name) { return std::hash<std::string>{}(net_name); }

}  // namespace

Module::Module(std::string name) : name_(std::move(name)) {}

std::size_t Module::name_slot(const std::string& net_name) const {
  const std::size_t mask = net_slots_.size() - 1;
  for (std::size_t s = name_hash(net_name) & mask;; s = (s + 1) & mask) {
    const NetId id = net_slots_[s];
    if (id == kNoNet || net_names_[static_cast<std::size_t>(id)] == net_name) return s;
  }
}

void Module::index_net(NetId id) {
  if (net_names_.size() * 2 > net_slots_.size()) {
    net_slots_.assign(std::max<std::size_t>(16, net_slots_.size() * 2), kNoNet);
    for (NetId n = 0; n < net_count(); ++n) {
      net_slots_[name_slot(net_names_[static_cast<std::size_t>(n)])] = n;
    }
    return;
  }
  net_slots_[name_slot(net_names_[static_cast<std::size_t>(id)])] = id;
}

void Module::unindex_net(NetId id) {
  // Backward-shift deletion: later entries of the probe run move up into
  // the hole when it lies on their own probe path, so no tombstones.
  const std::size_t mask = net_slots_.size() - 1;
  std::size_t hole = name_slot(net_names_[static_cast<std::size_t>(id)]);
  for (std::size_t s = (hole + 1) & mask; net_slots_[s] != kNoNet; s = (s + 1) & mask) {
    const std::size_t home =
        name_hash(net_names_[static_cast<std::size_t>(net_slots_[s])]) & mask;
    if (((s - home) & mask) >= ((s - hole) & mask)) {
      net_slots_[hole] = net_slots_[s];
      hole = s;
    }
  }
  net_slots_[hole] = kNoNet;
}

NetId Module::add_net(const std::string& net_name) {
  if (find_net(net_name) != kNoNet) {
    throw std::invalid_argument("Module::add_net: duplicate net " + net_name);
  }
  net_names_.push_back(net_name);
  driver_.push_back(-1);
  const auto id = static_cast<NetId>(net_names_.size() - 1);
  index_net(id);
  return id;
}

NetId Module::new_net(const std::string& prefix) {
  // Generated names live in their own "<prefix>$k" namespace to avoid
  // clashing with user names.
  return add_net(prefix + "$" + std::to_string(gen_counter_++));
}

void Module::rename_net(NetId id, const std::string& new_name) {
  if (id < 0 || id >= net_count()) throw std::out_of_range("Module::rename_net: bad id");
  if (find_net(new_name) != kNoNet) {
    throw std::invalid_argument("Module::rename_net: name in use: " + new_name);
  }
  unindex_net(id);
  net_names_[static_cast<std::size_t>(id)] = new_name;
  index_net(id);
}

NetId Module::find_net(const std::string& net_name) const {
  if (net_slots_.empty()) return kNoNet;
  return net_slots_[name_slot(net_name)];
}

const std::string& Module::net_name(NetId id) const {
  if (id < 0 || id >= net_count()) throw std::out_of_range("Module::net_name: bad id");
  return net_names_[static_cast<std::size_t>(id)];
}

void Module::mark_input(NetId id) {
  if (std::find(inputs_.begin(), inputs_.end(), id) == inputs_.end()) inputs_.push_back(id);
}

void Module::mark_output(NetId id) {
  if (std::find(outputs_.begin(), outputs_.end(), id) == outputs_.end()) outputs_.push_back(id);
}

void Module::set_clock(NetId id) {
  clock_ = id;
  mark_input(id);
}

bool Module::is_input(NetId id) const {
  return std::find(inputs_.begin(), inputs_.end(), id) != inputs_.end();
}

std::size_t Module::add_instance(const std::string& inst_name, const std::string& cell,
                                 std::vector<NetId> fanin, NetId out) {
  if (out < 0 || out >= net_count()) {
    throw std::invalid_argument("Module::add_instance: bad output net for " + inst_name);
  }
  if (driver_[static_cast<std::size_t>(out)] != -1) {
    throw std::invalid_argument("Module::add_instance: net " + net_name(out) +
                                " already driven (instance " + inst_name + ")");
  }
  for (NetId f : fanin) {
    if (f < 0 || f >= net_count()) {
      throw std::invalid_argument("Module::add_instance: bad fanin net for " + inst_name);
    }
  }
  driver_[static_cast<std::size_t>(out)] = static_cast<int>(instances_.size());
  instances_.push_back(Instance{inst_name, cell, std::move(fanin), out});
  return instances_.size() - 1;
}

std::size_t Module::add_instance_lenient(const std::string& inst_name, const std::string& cell,
                                         std::vector<NetId> fanin, NetId out) {
  if (out >= net_count()) {
    throw std::invalid_argument("Module::add_instance_lenient: bad output net for " + inst_name);
  }
  if (out < 0) out = kNoNet;
  for (NetId f : fanin) {
    if (f < 0 || f >= net_count()) {
      throw std::invalid_argument("Module::add_instance_lenient: bad fanin net for " + inst_name);
    }
  }
  const int index = static_cast<int>(instances_.size());
  if (out != kNoNet) {
    if (driver_[static_cast<std::size_t>(out)] == -1) {
      driver_[static_cast<std::size_t>(out)] = index;
    } else {
      extra_drivers_.emplace_back(out, index);
    }
  }
  instances_.push_back(Instance{inst_name, cell, std::move(fanin), out});
  return instances_.size() - 1;
}

void Module::remove_last_instance(std::size_t index) {
  if (index + 1 != instances_.size()) {
    throw std::invalid_argument("Module::remove_last_instance: not the last instance");
  }
  const NetId out = instances_.back().out;
  const int self = static_cast<int>(index);
  if (out != kNoNet && driver_[static_cast<std::size_t>(out)] == self) {
    driver_[static_cast<std::size_t>(out)] = -1;
  }
  while (!extra_drivers_.empty() && extra_drivers_.back().second == self) {
    extra_drivers_.pop_back();
  }
  instances_.pop_back();
}

int Module::driver(NetId net) const {
  if (net < 0 || net >= net_count()) throw std::out_of_range("Module::driver: bad net");
  return driver_[static_cast<std::size_t>(net)];
}

std::vector<int> Module::sinks(NetId net) const {
  std::vector<int> out;
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const auto& fanin = instances_[i].fanin;
    if (std::find(fanin.begin(), fanin.end(), net) != fanin.end()) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

int Module::fanout_count(NetId net) const {
  int n = 0;
  for (const auto& inst : instances_) {
    for (NetId f : inst.fanin) {
      if (f == net) ++n;
    }
  }
  for (NetId po : outputs_) {
    if (po == net) ++n;
  }
  return n;
}

std::vector<lint::Diagnostic> Module::check() const {
  std::vector<lint::Diagnostic> out;
  const auto emit = [&](const char* rule, const std::string& location, std::string message,
                        std::string hint) {
    out.push_back(lint::Diagnostic{rule, lint::Severity::kError, name_ + ":" + location,
                                   std::move(message), std::move(hint)});
  };
  std::vector<bool> has_sink(net_names_.size(), false);
  for (const auto& inst : instances_) {
    for (NetId f : inst.fanin) {
      if (f >= 0 && f < net_count()) has_sink[static_cast<std::size_t>(f)] = true;
    }
  }
  for (NetId n = 0; n < net_count(); ++n) {
    const bool driven = driver_[static_cast<std::size_t>(n)] != -1;
    const bool is_pi = is_input(n);
    if (driven && is_pi) {
      emit(lint::rules::kMultiDrivenNet, "net " + net_name(n),
           "primary input is also driven by instance " +
               instances_[static_cast<std::size_t>(driver_[static_cast<std::size_t>(n)])].name,
           "remove the port marking or the driving instance");
    }
    if (!driven && !is_pi) {
      // Dangling nets (no sinks, not an output) are allowed — they arise
      // when trial optimization moves are backed out.
      const bool is_po = std::find(outputs_.begin(), outputs_.end(), n) != outputs_.end();
      if (is_po || has_sink[static_cast<std::size_t>(n)]) {
        emit(lint::rules::kUndrivenNet, "net " + net_name(n),
             "used net has no driver and is not a primary input",
             "drive the net or mark it as an input");
      }
    }
  }
  for (const auto& [net, extra] : extra_drivers_) {
    const int first = driver_[static_cast<std::size_t>(net)];
    emit(lint::rules::kMultiDrivenNet, "net " + net_name(net),
         "driven by multiple instances (" +
             instances_[static_cast<std::size_t>(first)].name + " and " +
             instances_[static_cast<std::size_t>(extra)].name + ")",
         "keep exactly one driver per net");
  }
  for (const auto& inst : instances_) {
    if (inst.out == kNoNet || inst.out >= net_count()) {
      emit(lint::rules::kPortArity, "inst " + inst.name, "instance has no output net",
           "connect the cell's output pin");
    }
  }
  return out;
}

void Module::validate() const {
  const auto diagnostics = check();
  if (diagnostics.empty()) return;
  std::string message = "Module::validate: " + std::to_string(diagnostics.size()) +
                        " violation(s) in module " + name_ + "\n";
  message += lint::format_report(diagnostics);
  throw std::runtime_error(message);
}

}  // namespace rw::netlist
