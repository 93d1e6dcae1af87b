#include "report/json.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace nse
{

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
    return out;
}

BenchJson::BenchJson(std::string bench_name) : name_(std::move(bench_name))
{}

void
BenchJson::addTable(const std::string &label, const Table &table)
{
    tables_.push_back({label, table.headers(), table.rows()});
}

namespace
{

/** Set `key` in an insertion-ordered field list (last set wins). */
void
setField(std::vector<std::pair<std::string, std::string>> &fields,
         const std::string &key, std::string rendered)
{
    for (auto &[k, v] : fields) {
        if (k == key) {
            v = std::move(rendered);
            return;
        }
    }
    fields.emplace_back(key, std::move(rendered));
}

std::string
renderDouble(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    return buf;
}

} // namespace

void
BenchJson::setMetric(const std::string &key, uint64_t value)
{
    setField(metrics_, key, std::to_string(value));
}

void
BenchJson::setMetric(const std::string &key, double value)
{
    setField(metrics_, key, renderDouble(value));
}

void
BenchJson::setTiming(const std::string &key, double value)
{
    setField(timing_, key, renderDouble(value));
}

std::string
BenchJson::str() const
{
    std::ostringstream os;
    auto emitStrings = [&](const std::vector<std::string> &v) {
        os << "[";
        for (size_t i = 0; i < v.size(); ++i)
            os << (i ? "," : "") << jsonQuote(v[i]);
        os << "]";
    };

    auto emitFields = [&](const char *name, const Fields &fields) {
        os << ",\n  " << jsonQuote(name) << ": {";
        for (size_t i = 0; i < fields.size(); ++i)
            os << (i ? ", " : "") << jsonQuote(fields[i].first) << ": "
               << fields[i].second;
        os << "}";
    };

    os << "{\n  \"bench\": " << jsonQuote(name_);
    emitFields("metrics", metrics_);
    if (!timing_.empty())
        emitFields("timing", timing_);
    os << ",\n  \"tables\": [";
    for (size_t t = 0; t < tables_.size(); ++t) {
        const Entry &e = tables_[t];
        os << (t ? ",\n    {" : "\n    {");
        os << "\"label\": " << jsonQuote(e.label) << ", \"headers\": ";
        emitStrings(e.headers);
        os << ", \"rows\": [";
        for (size_t r = 0; r < e.rows.size(); ++r) {
            os << (r ? ",\n      " : "\n      ");
            emitStrings(e.rows[r]);
        }
        os << (e.rows.empty() ? "]}" : "\n    ]}");
    }
    os << (tables_.empty() ? "]\n}\n" : "\n  ]\n}\n");
    return os.str();
}

std::string
BenchJson::write() const
{
    const char *dir = std::getenv("NSE_BENCH_JSON_DIR");
    std::string d = dir ? dir : ".";
    if (d == "off")
        return "";
    std::string path = d + "/BENCH_" + name_ + ".json";
    std::ofstream os(path, std::ios::trunc);
    if (!os) {
        std::fprintf(stderr,
                     "warning: cannot open bench JSON output %s\n",
                     path.c_str());
        return "";
    }
    os << str();
    os.flush();
    if (!os) {
        std::fprintf(stderr,
                     "warning: short write to bench JSON output %s\n",
                     path.c_str());
        return "";
    }
    return path;
}

} // namespace nse
