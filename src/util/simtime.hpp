// Simulated time. The whole system runs on a single virtual clock owned by
// the event scheduler; wall-clock time is never consulted. Times are integer
// microseconds since the study epoch (2021-03-29 00:00 UTC, the Monday of
// ISO week 14 of 2021 — week 1 of the paper's Figure 1 mapping, Appendix E).
#pragma once

#include <compare>
#include <cstdint>
#include <string>

namespace malnet::util {

/// A duration in microseconds. Plain value type; arithmetic is exact.
struct Duration {
  std::int64_t us = 0;

  static constexpr Duration micros(std::int64_t n) { return {n}; }
  static constexpr Duration millis(std::int64_t n) { return {n * 1000}; }
  static constexpr Duration seconds(std::int64_t n) { return {n * 1'000'000}; }
  static constexpr Duration minutes(std::int64_t n) { return seconds(n * 60); }
  static constexpr Duration hours(std::int64_t n) { return minutes(n * 60); }
  static constexpr Duration days(std::int64_t n) { return hours(n * 24); }

  constexpr auto operator<=>(const Duration&) const = default;
  constexpr Duration operator+(Duration o) const { return {us + o.us}; }
  constexpr Duration operator-(Duration o) const { return {us - o.us}; }
  constexpr Duration operator*(std::int64_t k) const { return {us * k}; }
  constexpr Duration operator/(std::int64_t k) const { return {us / k}; }
};

/// A point on the simulated timeline.
struct SimTime {
  std::int64_t us = 0;

  constexpr auto operator<=>(const SimTime&) const = default;
  constexpr SimTime operator+(Duration d) const { return {us + d.us}; }
  constexpr SimTime operator-(Duration d) const { return {us - d.us}; }
  constexpr Duration operator-(SimTime o) const { return {us - o.us}; }

  /// Day index since epoch (day 0 = first day of the study).
  [[nodiscard]] constexpr std::int64_t day() const {
    return us / Duration::days(1).us;
  }
  /// Paper-style week number, 1-based (week 1 = first week of the study).
  [[nodiscard]] constexpr std::int64_t week() const { return day() / 7 + 1; }
};

/// Renders a SimTime as "d<day> hh:mm:ss" for logs and reports.
[[nodiscard]] std::string to_string(SimTime t);
[[nodiscard]] std::string to_string(Duration d);

/// Calendar label for a study day ("2021-03-29" style). The mapping follows
/// Appendix E: study weeks 1..31 of Figure 1 are non-contiguous calendar
/// weeks; for reporting we expose the underlying contiguous study day.
[[nodiscard]] std::string study_date(std::int64_t day_index);

/// Converts a proleptic-Gregorian civil date into a study-day index
/// (negative for dates before the 2021-03-29 epoch). Used to compute
/// vulnerability ages (§4: "9 of them more than 4 years old").
[[nodiscard]] std::int64_t civil_to_study_day(int year, int month, int day);

}  // namespace malnet::util
