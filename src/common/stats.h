#ifndef GPUPERF_COMMON_STATS_H_
#define GPUPERF_COMMON_STATS_H_

/**
 * @file
 * Summary statistics and the error metrics used throughout the paper.
 *
 * The paper reports "average error" as the mean absolute percentage error
 * (MAPE) of predicted vs measured times, and visualizes model quality as an
 * "S-curve": predicted/measured ratios sorted ascending (Figures 11-14).
 */

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gpuperf {

/** Arithmetic mean; 0 for empty input. */
double Mean(const std::vector<double>& values);

/** Sample standard deviation (n-1 denominator); 0 for n < 2. */
double StdDev(const std::vector<double>& values);

/** Geometric mean; requires strictly positive values. */
double GeoMean(const std::vector<double>& values);

/**
 * Linear-interpolated percentile, p in [0, 100]. Requires a non-empty
 * input with no NaNs (both are programmer-error CHECKs).
 */
double Percentile(std::vector<double> values, double p);

/**
 * Percentile of an input already sorted ascending and free of NaNs: the
 * same rank and interpolation as Percentile without its copy and sort,
 * so several percentiles of one sample share one sort.
 */
double SortedPercentile(const std::vector<double>& sorted, double p);

/**
 * Percentile at a fixed p over a growing sample, exact and streaming:
 * Value() equals Percentile(every value added so far, p) bit for bit.
 * A max-heap holds the smallest floor(rank) + 1 values and a min-heap
 * the rest, so the two order statistics the interpolation reads are the
 * heap tops. Add is O(log n); Value re-splits the heaps at the current
 * rank, O(log n) amortized over the Adds since the last query.
 */
class StreamingPercentile {
 public:
  /** p in [0, 100], as for Percentile. */
  explicit StreamingPercentile(double p);

  /** Adds one value; a NaN is a programmer error (CHECK). */
  void Add(double value);

  /** Values added so far. */
  std::size_t size() const { return low_.size() + high_.size(); }

  /** The percentile of every value added so far; requires size() > 0. */
  double Value();

 private:
  double p_;
  std::vector<double> low_;   // max-heap: the smallest values
  std::vector<double> high_;  // min-heap: the rest, each >= max(low_)
};

/**
 * Interpolated quantile of a fixed-bucket histogram, p in [0, 100] —
 * the estimator behind obs::MetricsRegistry's CSV p50/p95/p99 rows
 * (same linear-within-bucket scheme as Prometheus histogram_quantile).
 *
 * `upper_bounds` are the finite, strictly ascending bucket bounds;
 * `counts` are per-bucket counts with one extra overflow entry, so
 * counts.size() == upper_bounds.size() + 1. The first bucket's lower
 * bound is 0 (the histograms here hold non-negative times). A quantile
 * landing in the overflow bucket clamps to the last finite bound; an
 * empty histogram returns 0.
 */
double HistogramQuantile(const std::vector<double>& upper_bounds,
                         const std::vector<std::uint64_t>& counts, double p);

/** |pred - actual| / actual for a single pair. Requires actual != 0. */
double RelativeError(double predicted, double actual);

/** Mean absolute percentage error over paired vectors. */
double Mape(const std::vector<double>& predicted,
            const std::vector<double>& actual);

/** Pearson correlation coefficient; 0 if either side is constant. */
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

/**
 * One point of an S-curve (Figures 11-14): the percentage through the
 * sorted test set and the predicted/measured ratio at that position.
 */
struct SCurvePoint {
  double percent;  // 0..100 position within the sorted test set
  double ratio;    // predicted / measured
};

/** Builds the sorted predicted/measured S-curve. */
std::vector<SCurvePoint> SCurve(const std::vector<double>& predicted,
                                const std::vector<double>& actual);

/** Fraction of pairs whose relative error is below `threshold`. */
double FractionWithin(const std::vector<double>& predicted,
                      const std::vector<double>& actual, double threshold);

}  // namespace gpuperf

#endif  // GPUPERF_COMMON_STATS_H_
