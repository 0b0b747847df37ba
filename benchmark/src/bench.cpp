#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace poolbench {

namespace {

constexpr double kHistMinMs = 1e-4;
constexpr double kHistStep = 0.002;  // relative bin width
const double kHistLogStep = std::log1p(kHistStep);
const auto kHistBins = static_cast<std::size_t>(std::log(1e7) / kHistLogStep) + 1;

/// The probe kernel's median time on the reference machine (a quiet
/// 4-vCPU x86-64 VM, g++ 12, Release): the unit of HostSpeed::slowdown().
constexpr double kProbeReferenceMs = 0.55;

/// Dependent multiply-adds over 256 KiB read at a large odd stride: the
/// mix of ALU work and cache traffic the library's walks and scans do.
std::uint64_t probe_kernel() {
  static const std::vector<std::uint32_t> data = [] {
    std::vector<std::uint32_t> a(1 << 16);
    for (std::size_t i = 0; i < a.size(); ++i)
      a[i] = static_cast<std::uint32_t>(i * 2654435761u);
    return a;
  }();
  std::uint64_t h = 0;
  for (int round = 0; round < 8; ++round)
    for (std::size_t i = 0; i < data.size(); ++i)
      h = h * 31 + data[(i * 7919) & (data.size() - 1)];
  return h;
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void Outcome::host_bound(std::initializer_list<const char*> names,
                         double phase_slowdown) {
  for (const char* name : names) slowdown[name] = phase_slowdown;
}

void Histogram::add(double ms) {
  if (counts_.empty()) {
    counts_.assign(kHistBins, 0);
    sums_.assign(kHistBins, 0.0);
  }
  const double pos = ms > kHistMinMs ? std::log(ms / kHistMinMs) / kHistLogStep : 0.0;
  const std::size_t b = std::min(kHistBins - 1, static_cast<std::size_t>(pos));
  counts_[b] += 1;
  sums_[b] += ms;
  ++count_;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    seen += counts_[b];
    if (seen >= rank) return sums_[b] / static_cast<double>(counts_[b]);
  }
  return 0.0;  // unreachable: the bins hold count_ samples
}

Windows::Windows(Clock::time_point start, double seconds)
    : start_(start), width_(seconds / kWindows) {}

void Windows::add(Clock::time_point end, double busy_s) {
  const double at = seconds_between(start_, end);
  if (at < 0.0 || at >= width_ * kWindows) return;
  const int w = std::min(kWindows - 1, static_cast<int>(at / width_));
  count_[w] += 1.0;
  busy_[w] += busy_s;
}

double Windows::rate_by_busy() const {
  std::vector<double> rates;
  for (int w = 0; w < kWindows; ++w)
    if (busy_[w] > 0.0) rates.push_back(count_[w] / busy_[w]);
  return median(std::move(rates));
}

double Windows::rate_by_wall() const {
  std::vector<double> rates;
  for (int w = 0; w < kWindows; ++w) rates.push_back(count_[w] / width_);
  return median(std::move(rates));
}

void HostSpeed::sample() {
  const auto start = Clock::now();
  volatile std::uint64_t sink = probe_kernel();
  (void)sink;
  const auto end = Clock::now();
  samples_.push_back({end, ms_between(start, end)});
}

bool HostSpeed::tick() {
  if (!samples_.empty() && seconds_between(samples_.back().at, Clock::now()) < 0.1)
    return false;
  sample();
  return true;
}

double HostSpeed::slowdown() const {
  return slowdown(Clock::time_point::min(), Clock::time_point::max());
}

double HostSpeed::slowdown(Clock::time_point from, Clock::time_point to) const {
  std::vector<double> ms;
  for (const Sample& s : samples_)
    if (s.at >= from && s.at <= to) ms.push_back(s.ms);
  return ms.empty() ? 1.0 : median(std::move(ms)) / kProbeReferenceMs;
}

}  // namespace poolbench
