#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <queue>

namespace fleetbench {

uint64_t InputRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<size_t> Permutation(size_t n, InputRng& rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  return order;
}

namespace {

// 1-based nearest rank of the p-th percentile in a sample of n.
size_t NearestRank(size_t n, double p) {
  const auto rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  const size_t index = NearestRank(values.size(), p) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double Median(const std::vector<double>& values) { return Percentile(values, 50); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

struct ProbeState {
  struct Event {
    uint64_t when;
    uint32_t id;
    bool operator<(const Event& other) const { return when > other.when; }
  };
  static constexpr size_t kTableSlots = size_t{1} << 20;  // 8 MiB
  static constexpr uint32_t kPending = 32768;
  static constexpr int kSteps = 30000;

  std::vector<uint64_t> table = std::vector<uint64_t>(kTableSlots, 1);
  std::priority_queue<Event> queue;
  InputRng rng{0x70726f6265ull};
  uint64_t sink = 0;

  ProbeState() {
    for (uint32_t i = 0; i < kPending; ++i) {
      queue.push({rng.Below(kTableSlots), i});
    }
    for (int i = 0; i < 3; ++i) {  // fault the table in, warm the caches
      Run();
    }
  }
  void Run() {
    for (int k = 0; k < kSteps; ++k) {
      const Event e = queue.top();
      queue.pop();
      uint64_t& cell = table[(e.id * 2654435761ull + e.when) & (kTableSlots - 1)];
      cell += e.when;
      sink += cell;
      queue.push({e.when + 1 + rng.Below(4096), e.id});
    }
  }
};

double g_probe_total_s = 0;

}  // namespace

double ProbeSeconds() {
  static ProbeState state;
  const auto start = Clock::now();
  state.Run();
  const double seconds = SecondsSince(start);
  g_probe_total_s += seconds;
  return seconds;
}

double ProbeTotalSeconds() { return g_probe_total_s; }

Spans::Scope::Scope(Spans& spans, const char* name, int64_t op) {
  if (!spans.enabled_) {
    return;
  }
  spans_ = &spans;
  index_ = static_cast<int32_t>(spans.spans_.size());
  const int32_t parent = spans.open_.empty() ? -1 : spans.open_.back();
  const int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - spans.origin_)
          .count();
  spans.spans_.push_back(Span{name, now, now, parent, op});
  spans.open_.push_back(index_);
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) {
    return;
  }
  spans_->spans_[static_cast<size_t>(index_)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           spans_->origin_)
          .count();
  spans_->open_.pop_back();
}

double Spans::TotalSeconds(const char* name) const {
  int64_t total = 0;
  for (const Span& span : spans_) {
    if (std::string_view(span.name) == name) {
      total += span.end_ns - span.start_ns;
    }
  }
  return static_cast<double>(total) / 1e9;
}

bool Spans::Write(const std::string& path, const std::string& obs_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 ", \"parent\": %d, \"op\": %" PRId64 "}",
                 i == 0 ? "" : ",", i, s.name, s.start_ns, s.end_ns, s.parent, s.op);
  }
  std::fprintf(f, "\n],\n\"obs\": %s}\n", obs_json.c_str());
  return std::fclose(f) == 0;
}

void Report::Gate(bool ok, const std::string& what) {
  if (!ok) {
    failures_.push_back(what);
  }
}

void SetPercentile(Report& report, const std::string& name,
                   const std::vector<double>& values, double p, const std::string& unit) {
  if (values.empty()) {
    report.Set(name, 0, unit);
    report.Note(name + ": no samples");
    return;
  }
  const double value = Percentile(values, p);
  const size_t beyond = values.size() - NearestRank(values.size(), p);
  report.Set(name, value, unit);
  char line[256];
  std::snprintf(line, sizeof(line), "%s = %.6g %s (p%g of n=%zu, %zu beyond)",
                name.c_str(), value, unit.c_str(), p, values.size(), beyond);
  report.Note(line);
}

}  // namespace fleetbench
