#include "trace/export.hh"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace jord::trace {

namespace {

/** Escape the few characters that can appear in our names/meta. */
std::string
jsonEscape(const std::string &in)
{
    std::string out;
    out.reserve(in.size());
    for (char c : in) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) >= 0x20)
            out.push_back(c);
    }
    return out;
}

/** Shared attribution args suffix: `,"args":{...}}`. */
void
writeArgs(std::ostream &out, std::uint32_t id, const SpanRecord &rec)
{
    out << ",\"args\":{\"id\":" << id;
    if (rec.parent != 0)
        out << ",\"parent\":" << rec.parent;
    if (rec.req != 0)
        out << ",\"req\":" << rec.req;
    if (rec.fn >= 0)
        out << ",\"fn\":" << rec.fn;
    if (rec.measured)
        out << ",\"measured\":1";
    out << "}}";
}

} // namespace

void
writeChromeTrace(const Tracer &tracer, std::ostream &out)
{
    const double ticks_per_us = tracer.freqGhz() * 1000.0;
    char ts[64];
    auto us = [&](sim::Tick tick) -> const char * {
        std::snprintf(ts, sizeof(ts), "%.6f",
                      static_cast<double>(tick) / ticks_per_us);
        return ts;
    };

    // Metadata records label the tracks: one process_name for pid 0,
    // the worker, and one thread_name per named track.
    out << "{\"traceEvents\":[\n";
    out << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":"
           "\"process_name\",\"args\":{\"name\":\"jord worker\"}}";
    for (const auto &[track, name] : tracer.trackNames()) {
        out << ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":" << track
            << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
            << jsonEscape(name) << "\"}}";
    }

    std::size_t dropped = 0;
    const auto &spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &rec = spans[i];
        if (rec.open) {
            ++dropped;
            continue;
        }
        std::uint32_t id = static_cast<std::uint32_t>(i + 1);
        const char *cat = categoryName(rec.cat);
        const std::string name = jsonEscape(tracer.spanName(rec));
        bool async = rec.cat == Category::Request ||
                     rec.cat == Category::Invoke;
        if (async) {
            // Lifecycle spans overlap on a track; use async events.
            out << ",\n{\"ph\":\"b\",\"pid\":0,\"tid\":" << rec.track
                << ",\"id\":" << id << ",\"ts\":" << us(rec.start)
                << ",\"name\":\"" << name << "\",\"cat\":\"" << cat
                << "\"";
            writeArgs(out, id, rec);
            out << ",\n{\"ph\":\"e\",\"pid\":0,\"tid\":" << rec.track
                << ",\"id\":" << id << ",\"ts\":" << us(rec.end)
                << ",\"name\":\"" << name << "\",\"cat\":\"" << cat
                << "\"}";
        } else {
            out << ",\n{\"ph\":\"X\",\"pid\":0,\"tid\":" << rec.track
                << ",\"ts\":" << us(rec.start)
                << ",\"dur\":" << us(rec.end - rec.start)
                << ",\"name\":\"" << name << "\",\"cat\":\"" << cat
                << "\"";
            writeArgs(out, id, rec);
        }
    }

    out << "\n],\n\"displayTimeUnit\":\"ns\",\n\"otherData\":{";
    out << "\"freq_ghz\":\"";
    char freq[32];
    std::snprintf(freq, sizeof(freq), "%.6f", tracer.freqGhz());
    out << freq << "\"";
    for (const auto &[key, value] : tracer.meta())
        out << ",\"" << jsonEscape(key) << "\":\"" << jsonEscape(value)
            << "\"";
    if (dropped > 0)
        out << ",\"dropped_open_spans\":\"" << dropped << "\"";
    out << "}}\n";
}

std::string
chromeTraceJson(const Tracer &tracer)
{
    std::ostringstream out;
    writeChromeTrace(tracer, out);
    return out.str();
}

} // namespace jord::trace
