/**
 * @file
 * The benchmark's own statistics: nearest-rank percentiles under the
 * ten-samples-beyond rule, geometric means, and span self time. Kept
 * apart from the workloads so selfTest() can pin them on hand-made
 * inputs before any run trusts them.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Median (mean of the middle pair for even sizes); 0 when empty. */
double median(std::vector<double> xs);

/** Geometric mean of positive values; 0 when empty or any x <= 0. */
double geomean(const std::vector<double> &xs);

/** Nearest-rank p-th percentile (0 < p <= 100); 0 when empty. */
double nearestRank(std::vector<double> xs, double p);

/** A tail percentile and the evidence behind it. */
struct Tail
{
    /** The percentile reported (at most the one asked for). */
    double percentile = 0.0;
    double value = 0.0;
    size_t samples = 0;
};

/**
 * The highest nearest-rank percentile in [min_p, max_p] that leaves at
 * least `beyond` samples above its rank: p99 itself from 100 * beyond
 * samples on, a lower percentile below that, and never below the
 * median — with fewer than about 2 * beyond samples the tail is the
 * median (min_p) itself.
 */
Tail tailPercentile(std::vector<double> xs, double max_p = 99.0,
                    size_t beyond = 10, double min_p = 50.0);

/** One timed interval of the benchmark's own trace. */
struct Span
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    /** Index of the enclosing span in the same vector; -1 = none. */
    int64_t parent = -1;
    /** The operation the span belongs to (0 = none). */
    uint64_t op = 0;
    /** Set-up repetition or pass the span was recorded in. */
    size_t phase = 0;
};

/**
 * Self time of every span, parallel to `spans`: its duration minus
 * the part of its interval that its direct children cover (children
 * clipped to the parent, overlaps among them counted once).
 */
std::vector<double> selfTimesUs(const std::vector<Span> &spans);

/** Check the functions above on inputs with known answers. Returns
 *  the failures, one line each; empty = all hold. */
std::vector<std::string> selfTest();

} // namespace perfbench

#endif // PERFBENCH_STATS_H
