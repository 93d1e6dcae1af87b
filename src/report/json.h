/**
 * @file
 * Machine-readable experiment output: every bench binary emits a
 * BENCH_<name>.json next to (i.e. in addition to) its text tables, so
 * regression tooling and plotting scripts consume structure instead
 * of scraping aligned columns.
 *
 * The shape is uniform across all benches:
 *
 *   {
 *     "bench": "<name>",
 *     "metrics": {"runs": 12, "stallCycles": 34, ...},
 *     "tables": [
 *       {"label": "...", "headers": [...], "rows": [[...], ...]},
 *       ...
 *     ]
 *   }
 *
 * "metrics" carries the run counters of the observability layer
 * (obs/metrics.h): stall totals, retry counts, degraded cycles, event
 * counts. It is always present (empty when a bench sets none) so
 * consumers can rely on the shape, and it holds only deterministic
 * values, so two runs of one build write equal "metrics".
 *
 * Host wall-clock figures (speedups, throughputs) go in a separate
 * "timing" object after "metrics", emitted only when a bench sets one.
 */

#ifndef NSE_REPORT_JSON_H
#define NSE_REPORT_JSON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "report/table.h"

namespace nse
{

/** JSON string literal with standard escapes. */
std::string jsonQuote(const std::string &s);

/** Collects a bench binary's tables and serializes/writes them. */
class BenchJson
{
  public:
    explicit BenchJson(std::string bench_name);

    /** Record one rendered table under a label ("" for the only one). */
    void addTable(const std::string &label, const Table &table);

    /** Set one "metrics" counter (last set wins; insertion order is
     *  preserved in the document). */
    void setMetric(const std::string &key, uint64_t value);
    void setMetric(const std::string &key, double value);

    /** Set one "timing" value (a host wall-clock figure; same
     *  last-set-wins, insertion-ordered semantics as setMetric). */
    void setTiming(const std::string &key, double value);

    /** Serialize to the canonical JSON document. */
    std::string str() const;

    /**
     * Write BENCH_<name>.json. The directory comes from the
     * NSE_BENCH_JSON_DIR environment variable, defaulting to the
     * current working directory; NSE_BENCH_JSON_DIR=off suppresses
     * the file entirely. Returns the path written ("" if suppressed
     * or on I/O failure — emitting JSON never fails a bench, but a
     * failure prints a one-line warning to stderr so CI smoke checks
     * that assert on the file are not left guessing).
     */
    std::string write() const;

  private:
    struct Entry
    {
        std::string label;
        std::vector<std::string> headers;
        std::vector<std::vector<std::string>> rows;
    };

    /** (key, rendered JSON value), in insertion order. */
    using Fields = std::vector<std::pair<std::string, std::string>>;

    std::string name_;
    std::vector<Entry> tables_;
    Fields metrics_;
    Fields timing_;
};

} // namespace nse

#endif // NSE_REPORT_JSON_H
