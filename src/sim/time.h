// Simulated-time primitives for the Bolted discrete-event simulator.
//
// All simulation time is expressed in integer nanoseconds.  Duration and
// Time are distinct strong types so that "a point in time" and "an amount
// of time" cannot be mixed up; the only cross-type operations provided are
// the physically meaningful ones (Time + Duration = Time, Time - Time =
// Duration, and so on).

#ifndef SRC_SIM_TIME_H_
#define SRC_SIM_TIME_H_

#include <cstdint>
#include <string>

namespace bolted::sim {

// A signed span of simulated time with nanosecond resolution.
class Duration {
 public:
  constexpr Duration() = default;

  static constexpr Duration Nanoseconds(int64_t ns) { return Duration(ns); }
  static constexpr Duration Microseconds(int64_t us) { return Duration(us * 1000); }
  static constexpr Duration Milliseconds(int64_t ms) { return Duration(ms * 1000000); }
  static constexpr Duration Seconds(int64_t s) { return Duration(s * 1000000000); }
  static constexpr Duration Minutes(int64_t m) { return Seconds(m * 60); }
  static constexpr Duration SecondsF(double s) {
    return Duration(static_cast<int64_t>(s * 1e9));
  }
  static constexpr Duration Zero() { return Duration(0); }

  constexpr int64_t nanoseconds() const { return ns_; }
  constexpr double ToSecondsF() const { return static_cast<double>(ns_) / 1e9; }
  constexpr double ToMillisecondsF() const { return static_cast<double>(ns_) / 1e6; }

  constexpr Duration operator+(Duration other) const { return Duration(ns_ + other.ns_); }
  constexpr Duration operator-(Duration other) const { return Duration(ns_ - other.ns_); }
  constexpr Duration operator*(int64_t k) const { return Duration(ns_ * k); }
  // Scaling by a real factor (named to avoid int/double overload ambiguity).
  constexpr Duration Scaled(double k) const {
    return Duration(static_cast<int64_t>(static_cast<double>(ns_) * k));
  }
  constexpr Duration operator/(int64_t k) const { return Duration(ns_ / k); }
  constexpr double operator/(Duration other) const {
    return static_cast<double>(ns_) / static_cast<double>(other.ns_);
  }
  constexpr Duration& operator+=(Duration other) {
    ns_ += other.ns_;
    return *this;
  }
  constexpr Duration& operator-=(Duration other) {
    ns_ -= other.ns_;
    return *this;
  }
  constexpr auto operator<=>(const Duration&) const = default;

  // Human-readable rendering with an auto-selected unit, e.g. "3.2s".
  std::string ToString() const;

 private:
  explicit constexpr Duration(int64_t ns) : ns_(ns) {}
  int64_t ns_ = 0;
};

// An absolute point on the simulated clock.  Time zero is simulation start.
class Time {
 public:
  constexpr Time() = default;

  static constexpr Time FromNanoseconds(int64_t ns) { return Time(ns); }

  constexpr int64_t nanoseconds() const { return ns_; }
  constexpr double ToSecondsF() const { return static_cast<double>(ns_) / 1e9; }

  constexpr Time operator+(Duration d) const { return Time(ns_ + d.nanoseconds()); }
  constexpr Time operator-(Duration d) const { return Time(ns_ - d.nanoseconds()); }
  constexpr Duration operator-(Time other) const {
    return Duration::Nanoseconds(ns_ - other.ns_);
  }
  constexpr auto operator<=>(const Time&) const = default;

  std::string ToString() const;

 private:
  explicit constexpr Time(int64_t ns) : ns_(ns) {}
  int64_t ns_ = 0;
};

}  // namespace bolted::sim

#endif  // SRC_SIM_TIME_H_
