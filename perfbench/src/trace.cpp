#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "bench.hpp"

namespace rwbench {

namespace {
double g_start_s = 0.0;
}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double self_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void mark_start() { g_start_s = now_s(); }
double since_start_s() { return now_s() - g_start_s; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  return 0.5 * (upper + *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid)));
}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Scope::Scope(Tracer& tracer, std::string name) : tracer_(tracer), start_s_(now_s()) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<int>(tracer_.spans_.size());
  tracer_.spans_.push_back(
      Span{std::move(name), start_s_, -1.0, tracer_.open_.empty() ? -1 : tracer_.open_.back()});
  tracer_.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end_s = now_s();
  // Scopes nest lexically, so the innermost open span is this one.
  if (!tracer_.open_.empty()) tracer_.open_.pop_back();
}

double Tracer::Scope::seconds() const { return now_s() - start_s_; }

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                  "\"dur\": %.3f, \"pid\": 1, \"tid\": 1, \"args\": {\"id\": %zu, "
                  "\"parent\": %d}}%s\n",
                  s.name.c_str(), s.name.substr(0, s.name.find('.')).c_str(),
                  1e6 * (s.start_s - origin), 1e6 * (s.end_s - s.start_s), i, s.parent,
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "], \"displayTimeUnit\": \"ms\"}\n";
  return static_cast<bool>(out);
}

std::map<std::string, double> Tracer::layer_self_s() const {
  // Children of one span are sequential (one thread), so the part of the
  // parent they cover is the sum of their durations.
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name.substr(0, s.name.find('.'))] += (s.end_s - s.start_s) - child_s[i];
  }
  return self;
}

}  // namespace rwbench
