#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/logging.h"

namespace gpuperf {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double StdDev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  double mean = Mean(values);
  double sum_sq = 0.0;
  for (double v : values) sum_sq += (v - mean) * (v - mean);
  return std::sqrt(sum_sq / static_cast<double>(values.size() - 1));
}

double GeoMean(const std::vector<double>& values) {
  GP_CHECK(!values.empty());
  double log_sum = 0.0;
  for (double v : values) {
    GP_CHECK_GT(v, 0.0);
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

namespace {

/** The fractional position Percentile interpolates at among n values. */
double PercentileRank(double p, std::size_t n) {
  GP_CHECK_GT(n, 0u);
  GP_CHECK_GE(p, 0.0);
  GP_CHECK_LE(p, 100.0);
  return p / 100.0 * static_cast<double>(n - 1);
}

/** Blends order statistics floor(rank) and the one after it. */
double InterpolateAtRank(double rank, double at_lo, double at_hi) {
  const double frac =
      rank - static_cast<double>(static_cast<std::size_t>(rank));
  return at_lo * (1.0 - frac) + at_hi * frac;
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  for (double v : values) {
    GP_CHECK(!std::isnan(v)) << "Percentile input contains NaN";
  }
  std::sort(values.begin(), values.end());
  return SortedPercentile(values, p);
}

double SortedPercentile(const std::vector<double>& sorted, double p) {
  const double rank = PercentileRank(p, sorted.size());
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return InterpolateAtRank(rank, sorted[lo], sorted[hi]);
}

StreamingPercentile::StreamingPercentile(double p) : p_(p) {
  GP_CHECK_GE(p, 0.0);
  GP_CHECK_LE(p, 100.0);
}

void StreamingPercentile::Add(double value) {
  GP_CHECK(!std::isnan(value)) << "StreamingPercentile input contains NaN";
  // low_ is empty only before the first Add: Value() never shrinks it
  // below one element.
  if (low_.empty() || value <= low_.front()) {
    low_.push_back(value);
    std::push_heap(low_.begin(), low_.end());
  } else {
    high_.push_back(value);
    std::push_heap(high_.begin(), high_.end(), std::greater<>());
  }
}

double StreamingPercentile::Value() {
  const double rank = PercentileRank(p_, size());
  const std::size_t keep_low = static_cast<std::size_t>(rank) + 1;
  while (low_.size() > keep_low) {
    std::pop_heap(low_.begin(), low_.end());
    high_.push_back(low_.back());
    low_.pop_back();
    std::push_heap(high_.begin(), high_.end(), std::greater<>());
  }
  while (low_.size() < keep_low) {
    std::pop_heap(high_.begin(), high_.end(), std::greater<>());
    low_.push_back(high_.back());
    high_.pop_back();
    std::push_heap(low_.begin(), low_.end());
  }
  // At the top rank (floor(rank) = n - 1) Percentile clamps the upper
  // neighbour to the last element, which is the max-heap's top.
  return InterpolateAtRank(rank, low_.front(),
                           high_.empty() ? low_.front() : high_.front());
}

double HistogramQuantile(const std::vector<double>& upper_bounds,
                         const std::vector<std::uint64_t>& counts, double p) {
  GP_CHECK(!upper_bounds.empty());
  GP_CHECK_EQ(counts.size(), upper_bounds.size() + 1);
  GP_CHECK_GE(p, 0.0);
  GP_CHECK_LE(p, 100.0);
  for (std::size_t i = 0; i < upper_bounds.size(); ++i) {
    GP_CHECK(std::isfinite(upper_bounds[i]));
    if (i > 0) {
      GP_CHECK_LT(upper_bounds[i - 1], upper_bounds[i]);
    }
  }
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;

  // The p-quantile sits at rank p/100 * total observations; walk the
  // cumulative counts to its bucket and interpolate linearly inside.
  const double rank = p / 100.0 * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double in_bucket = static_cast<double>(counts[i]);
    if (cumulative + in_bucket >= rank && in_bucket > 0) {
      if (i == upper_bounds.size()) {
        // Overflow bucket: no finite upper edge to interpolate toward.
        return upper_bounds.back();
      }
      const double lower = i == 0 ? 0.0 : upper_bounds[i - 1];
      const double upper = upper_bounds[i];
      const double within = (rank - cumulative) / in_bucket;
      return lower + (upper - lower) * within;
    }
    cumulative += in_bucket;
  }
  // rank == total but trailing buckets are empty: the largest
  // observation lives in the last non-empty bucket, already handled
  // above; reaching here means every count was zero after `total > 0`,
  // which cannot happen.
  GP_CHECK(false);
  return 0.0;
}

double RelativeError(double predicted, double actual) {
  GP_CHECK_NE(actual, 0.0);
  return std::fabs(predicted - actual) / std::fabs(actual);
}

double Mape(const std::vector<double>& predicted,
            const std::vector<double>& actual) {
  GP_CHECK_EQ(predicted.size(), actual.size());
  GP_CHECK(!predicted.empty());
  double sum = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    sum += RelativeError(predicted[i], actual[i]);
  }
  return sum / static_cast<double>(predicted.size());
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  GP_CHECK_EQ(x.size(), y.size());
  if (x.size() < 2) return 0.0;
  double mx = Mean(x);
  double my = Mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<SCurvePoint> SCurve(const std::vector<double>& predicted,
                                const std::vector<double>& actual) {
  GP_CHECK_EQ(predicted.size(), actual.size());
  std::vector<double> ratios;
  ratios.reserve(predicted.size());
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    GP_CHECK_GT(actual[i], 0.0);
    ratios.push_back(predicted[i] / actual[i]);
  }
  std::sort(ratios.begin(), ratios.end());
  std::vector<SCurvePoint> curve;
  curve.reserve(ratios.size());
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    double percent =
        ratios.size() == 1
            ? 100.0
            : 100.0 * static_cast<double>(i) /
                  static_cast<double>(ratios.size() - 1);
    curve.push_back({percent, ratios[i]});
  }
  return curve;
}

double FractionWithin(const std::vector<double>& predicted,
                      const std::vector<double>& actual, double threshold) {
  GP_CHECK_EQ(predicted.size(), actual.size());
  if (predicted.empty()) return 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    if (RelativeError(predicted[i], actual[i]) < threshold) ++count;
  }
  return static_cast<double>(count) / static_cast<double>(predicted.size());
}

}  // namespace gpuperf
