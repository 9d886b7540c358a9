/**
 * @file
 * Trace-file integrity check and line extractors shared by the offline
 * trace tools (trace_report through trace::analyzeChromeTrace, and
 * jordlint).
 *
 * jordsim's Chrome trace writer terminates every complete file with
 * the metadata object's closing "}}" (followed only by whitespace);
 * a truncated file — a run killed mid-write, a partial copy — ends
 * inside a span line instead.  Both trace_report and jordlint refuse
 * such files up front rather than silently reporting on the prefix
 * that happened to survive.
 *
 * A complete trace with *zero spans* (an empty run: nothing arrived
 * inside the measured window) is a valid file, not a truncated one:
 * the writer still emits the metadata records and the closing
 * sentinel, and the check accepts it.  Only the downstream analyzers
 * decide whether an empty trace is useful.
 */

#ifndef JORD_TRACE_INTEGRITY_HH
#define JORD_TRACE_INTEGRITY_HH

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "sim/logging.hh"

namespace jord::trace {

// --- Minimal extractors for the writer's line-oriented JSON -----------

/** Extract the numeric value following @p key (e.g. `"dur":`) on one
 * trace line; returns an ok flag. */
inline bool
jsonNumber(const std::string &line, const char *key, double &out)
{
    std::size_t pos = line.find(key);
    if (pos == std::string::npos)
        return false;
    out = std::strtod(line.c_str() + pos + std::strlen(key), nullptr);
    return true;
}

/** Extract the string value following @p key (e.g. `"cat":"`) up to
 * the next `"`; returns an ok flag. */
inline bool
jsonString(const std::string &line, const char *key, std::string &out)
{
    std::size_t pos = line.find(key);
    if (pos == std::string::npos)
        return false;
    pos += std::strlen(key);
    std::size_t end = line.find('"', pos);
    if (end == std::string::npos)
        return false;
    out = line.substr(pos, end - pos);
    return true;
}

/**
 * Fatal unless @p path is a complete Chrome trace JSON file: readable,
 * non-empty, and terminated by the writer's closing "}}". A complete
 * file holding zero spans passes — empty is not truncated.
 */
inline void
requireCompleteTraceFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        sim::fatal("cannot open '%s'", path.c_str());
    in.seekg(0, std::ios::end);
    std::streamoff size = in.tellg();
    if (size <= 0)
        sim::fatal("'%s' is a zero-byte file — not a trace (a "
                   "span-free run still writes the trace header and "
                   "closing \"}}\"; did the producing run finish?)",
                   path.c_str());

    // Only the tail matters; a complete file ends "...}}\n".
    constexpr std::streamoff kTail = 256;
    std::streamoff start = size > kTail ? size - kTail : 0;
    in.seekg(start);
    std::string tail(static_cast<std::size_t>(size - start), '\0');
    in.read(tail.data(), static_cast<std::streamsize>(tail.size()));

    std::size_t end = tail.find_last_not_of(" \t\r\n");
    if (end == std::string::npos || end < 1 ||
        tail.compare(end - 1, 2, "}}") != 0)
        sim::fatal("'%s' is truncated: a complete jordsim trace ends "
                   "with its closing \"}}\" (re-run the producing "
                   "jordsim, or check the copy)",
                   path.c_str());
}

} // namespace jord::trace

#endif // JORD_TRACE_INTEGRITY_HH
