// Shared plumbing for the fleet lifecycle benchmark: run options, the
// seeded input generator, order statistics, host-time spans, and the
// metric report every workload fills in.
//
// Host time (std::chrono::steady_clock) and simulated time (sim::Time) are
// kept apart: host metrics carry a host unit ("s", "us", "MB") and never
// enter a digest; simulated metrics are named *_sim_* and are a pure
// function of the workload inputs, so a simulator-only speed-up must leave
// them bit-identical.

#ifndef FLEETBENCH_BENCH_H_
#define FLEETBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fleetbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  // Minimum host seconds the timed phase runs; workloads whose op is a
  // whole rollout or round repeat it until this much host time is spent.
  double seconds = 0;
  bool trace = false;
  // Self-test scale: the same code paths on a fleet small enough to run
  // in a few seconds.  Never used for reported numbers.
  bool small = false;
  // Traced runs write host spans and the obs metrics here (empty: none).
  std::string spans_path;
};

// splitmix64: the workload inputs (provisioning order, message peers,
// churn order, scenario seed) derive from --seed alone, never from the
// simulator's own Rng, so the program only ever sees generated inputs.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

// A uniformly random permutation of 0..n-1.
std::vector<size_t> Permutation(size_t n, InputRng& rng);

// Nearest-rank percentile (p in [0, 100]) of a non-empty sample.
double Percentile(std::vector<double> values, double p);
double Median(const std::vector<double>& values);

// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

// The host probe: a fixed piece of benchmark-owned work with the
// simulator's memory profile (a binary-heap event queue driving lookups
// into an 8 MiB table), shares no code with the simulator.  The benchmark
// host's neighbours slow memory-bound code by up to 2x in phases lasting
// tens of seconds; reading the probe beside every timed unit and rescaling
// the unit by kProbeNominalSeconds / probe keeps that drift out of the
// host-time metrics.  Returns the probe's host seconds.
double ProbeSeconds();
// Host seconds spent in the probe so far; callers timing a span that may
// contain probe readings subtract the difference.
double ProbeTotalSeconds();
// Near the probe's median time on the 4-vCPU Xeon host the benchmark was
// defined on, so rescaled numbers read like host time there.  It only sets
// their scale, and must never change: results are compared across commits.
constexpr double kProbeNominalSeconds = 0.006;

// Host-time samples of one kind, raw and rescaled by the probe read next
// to each.
struct HostSamples {
  std::vector<double> raw;
  std::vector<double> scaled;
  std::vector<double> probe_ratio;  // probe / nominal

  void Add(double value, double probe_s) {
    raw.push_back(value);
    scaled.push_back(value * kProbeNominalSeconds / probe_s);
    probe_ratio.push_back(probe_s / kProbeNominalSeconds);
  }
  // Adds `value` with a fresh probe reading taken after it.
  void AddProbed(double value) { Add(value, ProbeSeconds()); }
  void Append(const HostSamples& other) {
    raw.insert(raw.end(), other.raw.begin(), other.raw.end());
    scaled.insert(scaled.end(), other.scaled.begin(), other.scaled.end());
    probe_ratio.insert(probe_ratio.end(), other.probe_ratio.begin(), other.probe_ratio.end());
  }
  bool empty() const { return raw.empty(); }
};

// Probe readings for back-to-back timed units: each unit is rescaled by
// the mean of the reading just before it and the one just after it, and
// the reading after one unit is the reading before the next.
class Bracket {
 public:
  Bracket() : last_(ProbeSeconds()) {}
  // Reads the probe and returns the bracketing mean for the unit just done.
  double Next() {
    const double now = ProbeSeconds();
    const double mean = (last_ + now) / 2;
    last_ = now;
    return mean;
  }

 private:
  double last_;
};

// Host-time spans recorded around each call the benchmark makes into a
// layer's public API.  Spans live in memory and are written once, at exit;
// a disabled recorder (untraced runs) costs one branch per scope.
class Spans {
 public:
  struct Span {
    const char* name;  // string literal
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index of the enclosing span, -1 at top level
    int64_t op;      // op id (rollout, round, or simulated second)
  };

  class Scope {
   public:
    Scope(Spans& spans, const char* name, int64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_ = nullptr;
    int32_t index_ = -1;
  };

  explicit Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  // Total host seconds of every span with this name.
  double TotalSeconds(const char* name) const;
  // Writes {"spans": [...], "obs": <obs_json>} to path; false on I/O error.
  bool Write(const std::string& path, const std::string& obs_json) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// Everything one run reports.  Gates record correctness failures; any
// failure makes the run incorrect and the process exit non-zero.
class Report {
 public:
  struct Metric {
    double value;
    std::string unit;
  };

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  // A line printed ahead of the result (sample counts, distributions).
  void Note(const std::string& line) { notes_.push_back(line); }
  void Gate(bool ok, const std::string& what);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t digest = 0;
  // Traced runs: the attached obs::Registry's metrics, written with the
  // spans.
  std::string obs_json = "{}";

  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
};

// Sets `name` to the p-th percentile of a timing sample and notes the
// sample count and how many samples lie beyond it.
void SetPercentile(Report& report, const std::string& name,
                   const std::vector<double>& values, double p, const std::string& unit);

// Workloads (workloads.cc).  Each fills the report for both traced and
// untraced runs; the caller picks which metrics to publish.
void RunBootStorm(const Options& options, Spans& spans, Report& report);
void RunAttestFleet(const Options& options, Spans& spans, Report& report);
void RunChurnMixed(const Options& options, Spans& spans, Report& report);
void RunFleetSharded(const Options& options, Spans& spans, Report& report);

}  // namespace fleetbench

#endif  // FLEETBENCH_BENCH_H_
