#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "lint/rules.hpp"
#include "util/strings.hpp"

namespace rw::lint {

bool parse_indexed_name(std::string_view name, std::string& base, double& lambda_p,
                        double& lambda_n) {
  // Same `<base>_<num>_<num>` shape as util::parse_indexed_cell_name, minus
  // the [0,1] range check (AN001 exists to report out-of-range indices).
  const auto last = name.rfind('_');
  if (last == std::string_view::npos || last == 0) return false;
  const auto prev = name.rfind('_', last - 1);
  if (prev == std::string_view::npos || prev == 0) return false;
  const std::string lp_str{name.substr(prev + 1, last - prev - 1)};
  const std::string ln_str{name.substr(last + 1)};
  char* end = nullptr;
  const double lp = std::strtod(lp_str.c_str(), &end);
  if (end == lp_str.c_str() || *end != '\0') return false;
  end = nullptr;
  const double ln = std::strtod(ln_str.c_str(), &end);
  if (end == ln_str.c_str() || *end != '\0') return false;
  base = std::string{name.substr(0, prev)};
  lambda_p = lp;
  lambda_n = ln;
  return true;
}

ResolvedCell resolve_cell(const liberty::Library& library, const std::string& name) {
  ResolvedCell r;
  r.base = name;
  r.indexed = parse_indexed_name(name, r.base, r.lambda_p, r.lambda_n);
  r.cell = library.find(name);
  r.exact = r.cell != nullptr;
  if (r.cell == nullptr && r.indexed) r.cell = library.find(r.base);
  return r;
}

bool library_has_variant(const liberty::Library& library, const std::string& base) {
  if (library.find(base) != nullptr) return true;
  std::string other_base;
  double lp = 0.0;
  double ln = 0.0;
  for (const auto& cell : library.cells()) {
    if (util::parse_indexed_cell_name(cell.name, other_base, lp, ln) && other_base == base) {
      return true;
    }
  }
  return false;
}

namespace {

std::string inst_loc(const netlist::Module& module, std::size_t index) {
  return module.name() + ":inst " + module.instances()[index].name;
}

/// True when the instance is a sequential element (flops cut the timing
/// graph). Unresolvable cells are conservatively treated as combinational.
bool is_flop(const LintSubject& subject, const netlist::Instance& inst) {
  if (subject.library == nullptr) return false;
  const ResolvedCell r = resolve_cell(*subject.library, inst.cell);
  return r.cell != nullptr && r.cell->is_flop;
}

/// NL002 / NL003 / NL006(no output): the structural invariants collected by
/// `Module::check()` — one driver per net, no driven primary inputs, every
/// instance output connected.
class StructureRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "netlist.structure"; }
  [[nodiscard]] std::string_view description() const override {
    return "every used net has exactly one driver and every instance an output";
  }
  void run(const LintSubject& subject, std::vector<Diagnostic>& out) const override {
    if (subject.module == nullptr) return;
    for (auto& d : subject.module->check()) out.push_back(std::move(d));
  }
};

/// NL001: combinational cycles. DFS over combinational instances (flops cut
/// the graph); each cycle is reported once, with the instance path.
class CombCycleRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "netlist.cycles"; }
  [[nodiscard]] std::string_view description() const override {
    return "the combinational core is acyclic (flops cut the graph)";
  }
  void run(const LintSubject& subject, std::vector<Diagnostic>& out) const override {
    if (subject.module == nullptr) return;
    const netlist::Module& m = *subject.module;
    const std::size_t n = m.instances().size();

    std::vector<bool> flop(n, false);
    for (std::size_t i = 0; i < n; ++i) flop[i] = is_flop(subject, m.instances()[i]);

    // Sink adjacency over combinational instances only. extra_drivers are
    // not edges — multi-driven nets are NL003's problem, and following them
    // would double-report.
    std::vector<std::vector<int>> sinks_of(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (flop[i]) continue;
      const auto& fanin = m.instances()[i].fanin;
      for (netlist::NetId f : fanin) {
        const int d = f == netlist::kNoNet ? -1 : m.driver(f);
        if (d >= 0 && !flop[static_cast<std::size_t>(d)]) {
          sinks_of[static_cast<std::size_t>(d)].push_back(static_cast<int>(i));
        }
      }
    }

    // Iterative coloring DFS; when a grey node is re-entered, the stack
    // segment from its first visit is the cycle.
    enum : unsigned char { kWhite, kGrey, kBlack };
    std::vector<unsigned char> color(n, kWhite);
    std::vector<int> stack;        // DFS path (grey nodes, in order)
    std::vector<std::size_t> next; // per path entry: next sink index to try
    for (std::size_t root = 0; root < n; ++root) {
      if (color[root] != kWhite || flop[root]) continue;
      stack.assign(1, static_cast<int>(root));
      next.assign(1, 0);
      color[root] = kGrey;
      while (!stack.empty()) {
        const auto u = static_cast<std::size_t>(stack.back());
        if (next.back() < sinks_of[u].size()) {
          const int v = sinks_of[u][next.back()++];
          const auto vu = static_cast<std::size_t>(v);
          if (color[vu] == kWhite) {
            color[vu] = kGrey;
            stack.push_back(v);
            next.push_back(0);
          } else if (color[vu] == kGrey) {
            report_cycle(m, stack, v, out);
          }
        } else {
          color[u] = kBlack;
          stack.pop_back();
          next.pop_back();
        }
      }
    }
  }

 private:
  static void report_cycle(const netlist::Module& m, const std::vector<int>& stack, int entry,
                           std::vector<Diagnostic>& out) {
    const auto it = std::find(stack.begin(), stack.end(), entry);
    std::string path;
    for (auto p = it; p != stack.end(); ++p) {
      if (!path.empty()) path += " -> ";
      path += m.instances()[static_cast<std::size_t>(*p)].name;
    }
    path += " -> " + m.instances()[static_cast<std::size_t>(entry)].name;
    out.push_back(Diagnostic{rules::kCombCycle, Severity::kError,
                             m.name() + ":inst " + m.instances()[static_cast<std::size_t>(entry)].name,
                             "combinational cycle: " + path,
                             "break the loop with a flop or restructure the logic"});
  }
};

/// NL004: an instance output that feeds nothing and is not a primary output
/// is dead logic (or a forgotten connection).
class DanglingOutputRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "netlist.dangling"; }
  [[nodiscard]] std::string_view description() const override {
    return "every instance output reaches a sink or a primary output";
  }
  void run(const LintSubject& subject, std::vector<Diagnostic>& out) const override {
    if (subject.module == nullptr) return;
    const netlist::Module& m = *subject.module;
    // Which nets reach a sink or a primary output, in one O(pins) pass.
    std::vector<bool> used(static_cast<std::size_t>(m.net_count()), false);
    const auto valid = [&](netlist::NetId n) { return n >= 0 && n < m.net_count(); };
    for (const auto& inst : m.instances()) {
      for (netlist::NetId f : inst.fanin) {
        if (valid(f)) used[static_cast<std::size_t>(f)] = true;
      }
    }
    for (netlist::NetId po : m.outputs()) {
      if (valid(po)) used[static_cast<std::size_t>(po)] = true;
    }
    for (std::size_t i = 0; i < m.instances().size(); ++i) {
      const netlist::NetId o = m.instances()[i].out;
      if (!valid(o)) continue;  // NL006 (no output) covers this
      if (!used[static_cast<std::size_t>(o)]) {
        out.push_back(Diagnostic{rules::kDanglingOutput, Severity::kWarning, inst_loc(m, i),
                                 "output net " + m.net_name(o) + " feeds nothing",
                                 "remove the dead instance or connect its output"});
      }
    }
  }
};

/// NL005 + NL006(arity): every instance references a library cell (λ-indexed
/// names resolve through their base; absent *corners* are AN002's finding,
/// not NL005's) and connects exactly the cell's input-pin count.
class CellRefRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "netlist.cellrefs"; }
  [[nodiscard]] std::string_view description() const override {
    return "instances reference known cells with matching pin counts";
  }
  void run(const LintSubject& subject, std::vector<Diagnostic>& out) const override {
    if (subject.module == nullptr || subject.library == nullptr) return;
    const netlist::Module& m = *subject.module;
    for (std::size_t i = 0; i < m.instances().size(); ++i) {
      const auto& inst = m.instances()[i];
      const ResolvedCell r = resolve_cell(*subject.library, inst.cell);
      if (r.cell == nullptr) {
        if (r.indexed && library_has_variant(*subject.library, r.base)) continue;  // -> AN002
        out.push_back(Diagnostic{rules::kUnknownCell, Severity::kError, inst_loc(m, i),
                                 "unknown cell " + inst.cell,
                                 "use a cell from the target library"});
        continue;
      }
      const auto want = static_cast<std::size_t>(r.cell->n_inputs());
      if (inst.fanin.size() != want) {
        out.push_back(Diagnostic{
            rules::kPortArity, Severity::kError, inst_loc(m, i),
            "cell " + r.cell->name + " has " + std::to_string(want) + " input pin(s) but " +
                std::to_string(inst.fanin.size()) + " are connected",
            "connect every input pin exactly once"});
      }
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> netlist_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<StructureRule>());
  rules.push_back(std::make_unique<CombCycleRule>());
  rules.push_back(std::make_unique<DanglingOutputRule>());
  rules.push_back(std::make_unique<CellRefRule>());
  return rules;
}

}  // namespace rw::lint
