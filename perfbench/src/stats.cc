#include "stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

namespace perfbench
{

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    size_t n = xs.size();
    return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double logSum = 0.0;
    for (double x : xs) {
        if (!(x > 0.0))
            return 0.0;
        logSum += std::log(x);
    }
    return std::exp(logSum / static_cast<double>(xs.size()));
}

namespace
{

/** 1-based nearest rank of percentile p among n samples. */
size_t
rankOf(double p, size_t n)
{
    double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
    return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1,
                              n);
}

} // namespace

double
nearestRank(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    return xs[rankOf(p, xs.size()) - 1];
}

Tail
tailPercentile(std::vector<double> xs, double max_p, size_t beyond,
               double min_p)
{
    Tail t;
    t.samples = xs.size();
    if (xs.empty())
        return t;
    std::sort(xs.begin(), xs.end());
    const size_t n = xs.size();
    const size_t floor = rankOf(min_p, n);
    // The largest rank leaving `beyond` samples above it, and the
    // largest percentile whose nearest rank is still that rank.
    size_t rank = n > beyond ? std::min(rankOf(max_p, n), n - beyond) : 0;
    if (rank <= floor) {
        t.percentile = min_p;
        rank = floor;
    } else {
        t.percentile = std::min(max_p, 100.0 * static_cast<double>(rank) /
                                           static_cast<double>(n));
    }
    t.value = xs[rank - 1];
    return t;
}

std::vector<double>
selfTimesUs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            kids[static_cast<size_t>(s.parent)].push_back(
                {s.startUs, s.endUs});

    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double reach = s.startUs;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, reach);
            hi = std::min(hi, s.endUs);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        self[i] = std::max(0.0, (s.endUs - s.startUs) - covered);
    }
    return self;
}

std::vector<std::string>
selfTest()
{
    std::vector<std::string> failures;
    auto expect = [&](bool ok, const std::string &what) {
        if (!ok)
            failures.push_back(what);
    };
    auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };

    expect(near(median({3, 1, 2}), 2) && near(median({4, 1, 3, 2}), 2.5),
           "median of odd and even sizes");
    expect(near(geomean({1, 4, 16}), 4) && geomean({2, 0}) == 0.0,
           "geomean of {1,4,16} is 4; a zero sample yields 0");

    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    expect(near(nearestRank(hundred, 50), 50) &&
               near(nearestRank(hundred, 99), 99) &&
               near(nearestRank(hundred, 100), 100) &&
               near(nearestRank(hundred, 0.5), 1),
           "nearest rank on 1..100");
    expect(near(nearestRank({10, 20, 30, 40}, 50), 20) &&
               near(nearestRank({10, 20, 30, 40}, 51), 30),
           "nearest rank rounds the rank up");

    std::vector<double> thousand;
    for (int i = 1000; i >= 1; --i)
        thousand.push_back(i);
    Tail t = tailPercentile(thousand);
    expect(near(t.percentile, 99) && near(t.value, 990) &&
               t.samples == 1000,
           "p99 of 1..1000 is 990 with exactly ten samples beyond");
    t = tailPercentile(hundred);
    expect(near(t.percentile, 90) && near(t.value, 90),
           "100 samples: p90 is the highest with ten beyond");
    std::vector<double> twentyfive(hundred.begin(), hundred.begin() + 25);
    t = tailPercentile(twentyfive);
    expect(near(t.percentile, 60) && near(t.value, 15),
           "25 samples: p60 (rank 15) leaves ten beyond");
    std::vector<double> eighteen(hundred.begin(), hundred.begin() + 18);
    t = tailPercentile(eighteen);
    expect(near(t.percentile, 50) && near(t.value, 9),
           "18 samples: rank 8 would sit below the median; report p50");
    t = tailPercentile({5, 1, 3});
    expect(near(t.percentile, 50) && near(t.value, 3),
           "too few samples fall back to the median");

    // op [0,100] -> a [10,40] -> a.x [15,25]; b [30,70] overlaps a;
    // c [90,120] runs past its parent and is clipped.
    std::vector<Span> spans = {
        {"op", 0, 100, -1, 1, 0},  {"a", 10, 40, 0, 1, 0},
        {"a.x", 15, 25, 1, 1, 0},  {"b", 30, 70, 0, 1, 0},
        {"c", 90, 120, 0, 1, 0},
    };
    std::vector<double> self = selfTimesUs(spans);
    expect(near(self[0], 100 - (70 - 10) - (100 - 90)),
           "op self time subtracts the union of its children");
    expect(near(self[1], 30 - 10) && near(self[2], 10) &&
               near(self[3], 40) && near(self[4], 30),
           "nested and leaf self times");
    return failures;
}

} // namespace perfbench
