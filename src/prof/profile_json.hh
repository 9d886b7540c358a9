/**
 * @file
 * Deterministic flat JSON for profile/bench summaries.
 *
 * jordsim's summaries, the profile exporter, the bench targets and
 * tools/jordprof exchange flat string->number maps.  Writing them
 * through one helper (sorted keys, fixed %.10g formatting, no locale
 * dependence) makes same-seed runs byte-identical and lets jordprof
 * diff files from any of these sources.
 */

#ifndef JORD_PROF_PROFILE_JSON_HH
#define JORD_PROF_PROFILE_JSON_HH

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <ostream>
#include <string>

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

} // namespace jord::prof

#endif // JORD_PROF_PROFILE_JSON_HH
