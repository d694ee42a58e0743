#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n % 2 == 1) return v[n / 2];
  const double lo = v[n / 2 - 1], hi = v[n / 2];
  if (std::isinf(lo) || std::isinf(hi)) return std::max(lo, hi);
  return (lo + hi) / 2.0;
}

Quartiles quartiles(std::vector<double> v) {
  if (v.size() < 2)
    throw std::invalid_argument("quartiles need at least two samples");
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long>(v.size());
  // statistics.quantiles(n=4, method="exclusive"): m = len + 1, the i-th
  // cut point interpolates between sorted positions j-1 and j with
  // j = i*m // 4 clamped to [1, len-1].
  const auto cut = [&](long i) {
    const long m = n + 1;
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    const double a = v[static_cast<std::size_t>(j - 1)];
    const double b = v[static_cast<std::size_t>(j)];
    return (a * static_cast<double>(4 - delta) + b * static_cast<double>(delta)) / 4.0;
  };
  return Quartiles{cut(1), cut(2), cut(3)};
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

std::optional<double> percentile(std::vector<double> v, double p) {
  if (!(p > 0.0 && p < 100.0))
    throw std::invalid_argument("percentile outside (0, 100)");
  if (samples_beyond(v.size(), p) < 10) return std::nullopt;
  const std::size_t rank = v.size() - samples_beyond(v.size(), p);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1), v.end());
  return v[rank - 1];
}

double setup_median(const std::vector<double>& reps) {
  if (reps.empty()) throw std::invalid_argument("setup_median of an empty sample");
  std::vector<std::pair<double, std::size_t>> batches;  // sum, count
  double sum = 0.0;
  std::size_t n = 0;
  for (const double r : reps) {
    sum += r;
    ++n;
    if (sum >= kSetupBatchSeconds) {
      batches.emplace_back(sum, n);
      sum = 0.0;
      n = 0;
    }
  }
  if (n > 0 && batches.empty()) {
    batches.emplace_back(sum, n);
  } else if (n > 0) {
    batches.back().first += sum;
    batches.back().second += n;
  }
  std::vector<double> means;
  for (const auto& [total, count] : batches) means.push_back(total / static_cast<double>(count));
  return median(means);
}

namespace {

/// One window of a Path: its wall length and the indices of its samples.
struct Window {
  double seconds = 0.0;
  std::vector<std::size_t> samples;
};

/// Cut [p.begin, p.end] into windows in completion order: a window closes
/// at the first completion that makes it at least kWindowSeconds long and
/// `min_samples` strong; what is left at the end joins the last window.
std::vector<Window> windows(const Path& p, std::size_t min_samples) {
  if (!(seconds_between(p.begin, p.end) > 0.0))
    throw std::invalid_argument("path '" + p.name + "' has no interval");
  std::vector<std::size_t> order(p.done.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return p.done[a] < p.done[b]; });
  std::vector<Window> out;
  Window w;
  Clock::time_point from = p.begin;
  for (const std::size_t i : order) {
    w.samples.push_back(i);
    const double len = seconds_between(from, p.done[i]);
    if (len >= kWindowSeconds && w.samples.size() >= min_samples) {
      w.seconds = len;
      out.push_back(std::move(w));
      w = Window{};
      from = p.done[i];
    }
  }
  w.seconds = seconds_between(from, p.end);
  if (out.empty() || (w.seconds >= kWindowSeconds && w.samples.size() >= min_samples)) {
    out.push_back(std::move(w));
  } else {
    out.back().seconds += w.seconds;
    out.back().samples.insert(out.back().samples.end(), w.samples.begin(), w.samples.end());
  }
  return out;
}

}  // namespace

void Path::merge(const Path& o) {
  lat.append(o.lat);
  done.insert(done.end(), o.done.begin(), o.done.end());
  units.insert(units.end(), o.units.begin(), o.units.end());
  work += o.work;
}

double Path::rate() const {
  std::vector<double> rates;
  for (const Window& w : windows(*this, 1)) {
    double n = 0.0;
    for (const std::size_t i : w.samples) n += units[i];
    rates.push_back(n / w.seconds);
  }
  return median(rates);
}

std::optional<double> Path::percentile(double p) const {
  // The smallest sample count with ten samples beyond the p-th percentile.
  std::size_t need = 1;
  while (samples_beyond(need, p) < 10) ++need;
  if (lat.size() < need) return std::nullopt;
  std::vector<double> per;
  for (const Window& w : windows(*this, need)) {
    std::vector<double> v;
    for (const std::size_t i : w.samples) v.push_back(lat.values()[i]);
    if (const auto q = perfbench::percentile(v, p)) per.push_back(*q);
  }
  if (per.empty()) return std::nullopt;
  return median(per);
}

}  // namespace perfbench
