/**
 * @file
 * Deterministic flat JSON for profile/bench summaries.
 *
 * The profile exporter, the bench targets and tools/jordprof exchange
 * flat string->number maps.  Writing them through one helper (sorted
 * keys, fixed %.10g formatting, no locale dependence) makes same-seed
 * runs byte-identical and lets jordprof diff files from either source.
 *
 * The `diff` regression gate of jordprof and jordmon lives here too;
 * each tool supplies only its own per-key rule.
 */

#ifndef JORD_PROF_PROFILE_JSON_HH
#define JORD_PROF_PROFILE_JSON_HH

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace jord::prof {

/** Write a flat {"key": number, ...} object with sorted keys. */
inline void
writeFlatJson(std::ostream &out, const std::map<std::string, double> &kv)
{
    out << "{\n";
    bool first = true;
    for (const auto &[key, value] : kv) {
        if (!first)
            out << ",\n";
        first = false;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.10g", value);
        out << "  \"" << key << "\": " << buf;
    }
    out << "\n}\n";
}

/**
 * Parse a flat {"key": number, ...} object produced by writeFlatJson
 * (or any JSON object whose values are all plain numbers).  Returns
 * false on malformed input; nested structures are rejected.
 */
inline bool
parseFlatJson(const std::string &text, std::map<std::string, double> &kv)
{
    std::size_t i = 0;
    auto skipWs = [&] {
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i])))
            ++i;
    };
    skipWs();
    if (i >= text.size() || text[i] != '{')
        return false;
    ++i;
    skipWs();
    if (i < text.size() && text[i] == '}')
        return true;
    while (true) {
        skipWs();
        if (i >= text.size() || text[i] != '"')
            return false;
        std::size_t end = text.find('"', i + 1);
        if (end == std::string::npos)
            return false;
        std::string key = text.substr(i + 1, end - i - 1);
        i = end + 1;
        skipWs();
        if (i >= text.size() || text[i] != ':')
            return false;
        ++i;
        skipWs();
        char *num_end = nullptr;
        double value = std::strtod(text.c_str() + i, &num_end);
        if (num_end == text.c_str() + i)
            return false;
        kv[key] = value;
        i = static_cast<std::size_t>(num_end - text.c_str());
        skipWs();
        if (i >= text.size())
            return false;
        if (text[i] == ',') {
            ++i;
            continue;
        }
        if (text[i] == '}')
            return true;
        return false;
    }
}

/**
 * Read a flat JSON summary from @p path. Fatal when the file cannot be
 * opened, is empty, or is not a flat {"key": number} object.
 */
std::map<std::string, double> loadFlatJson(const std::string &path);

/** True when @p key contains @p needle. */
bool contains(const std::string &key, const char *needle);

/**
 * Relative change from @p old_value to @p new_value in the worse
 * direction (positive = regression). A zero baseline cannot regress
 * relatively: a nonzero new value on it is an infinite regression for
 * a lower-is-better key and no change for a higher-is-better one.
 */
double relativeRegression(double old_value, double new_value,
                          bool higher_is_better);

/**
 * A tool's per-key gate rule: how much worse @p key got from
 * @p old_value to @p new_value (> 0 = regression), or nullopt when the
 * key does not gate a diff.
 */
using RegressionRule = std::optional<double> (*)(const std::string &key,
                                                 double old_value,
                                                 double new_value);

/**
 * The `diff OLD.json NEW.json [--threshold 10%]` subcommand. @p args
 * are the arguments after "diff". Prints every gating key the two
 * files share and every key only one of them has.
 *
 * @return 1 when any gating key regressed past the threshold (default
 *     10%), else 0.
 */
int diffCommand(const std::vector<std::string> &args, RegressionRule rule);

} // namespace jord::prof

#endif // JORD_PROF_PROFILE_JSON_HH
