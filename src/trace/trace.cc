#include "trace/trace.hh"

#include "sim/logging.hh"

namespace jord::trace {

const char *
categoryName(Category cat)
{
    switch (cat) {
      case Category::Exec: return "exec";
      case Category::Isolation: return "isolation";
      case Category::Dispatch: return "dispatch";
      case Category::Comm: return "comm";
      case Category::Pipe: return "pipe";
      case Category::Request: return "request";
      case Category::Invoke: return "invoke";
      case Category::Hw: return "hw";
      case Category::Runtime: return "runtime";
    }
    return "?";
}

bool
categoryFromName(std::string_view name, Category &out)
{
    for (unsigned c = 0; c <= static_cast<unsigned>(Category::Runtime);
         ++c) {
        Category cat = static_cast<Category>(c);
        if (name == categoryName(cat)) {
            out = cat;
            return true;
        }
    }
    return false;
}

Tracer::Tracer(double freq_ghz) : freqGhz_(freq_ghz)
{
    // Name id 0 is reserved so SpanRecord{} is inert.
    names_.emplace_back("");
}

std::uint32_t
Tracer::intern(std::string_view name)
{
    auto it = nameIds_.find(std::string(name));
    if (it != nameIds_.end())
        return it->second;
    std::uint32_t id = static_cast<std::uint32_t>(names_.size());
    names_.emplace_back(name);
    nameIds_.emplace(names_.back(), id);
    return id;
}

SpanId
Tracer::begin(std::string_view name, Category cat, unsigned track,
              sim::Tick start, SpanId parent, const SpanArgs &args)
{
    SpanRecord rec;
    rec.parent = parent;
    rec.name = intern(name);
    rec.cat = cat;
    rec.track = static_cast<std::uint16_t>(track);
    rec.start = start;
    rec.req = args.req;
    rec.fn = args.fn;
    rec.measured = args.measured;
    spans_.push_back(rec);
    return static_cast<SpanId>(spans_.size());
}

void
Tracer::end(SpanId id, sim::Tick end_tick)
{
    if (id == 0 || id > spans_.size())
        sim::panic("trace: end() on invalid span id %u", id);
    SpanRecord &rec = spans_[id - 1];
    if (!rec.open)
        sim::panic("trace: span %u ended twice", id);
    if (end_tick < rec.start)
        sim::panic("trace: span %u would end before it starts", id);
    rec.end = end_tick;
    rec.open = false;
}

SpanId
Tracer::complete(std::string_view name, Category cat, unsigned track,
                 sim::Tick start, sim::Cycles dur, SpanId parent,
                 const SpanArgs &args)
{
    SpanId id = begin(name, cat, track, start, parent, args);
    end(id, start + dur);
    return id;
}

void
Tracer::setMeta(const std::string &key, const std::string &value)
{
    meta_[key] = value;
}

void
Tracer::setTrackName(unsigned track, const std::string &name)
{
    trackNames_[track] = name;
}

std::size_t
Tracer::numOpenSpans() const
{
    std::size_t open = 0;
    for (const SpanRecord &rec : spans_)
        if (rec.open)
            ++open;
    return open;
}

void
Tracer::clear()
{
    spans_.clear();
}

} // namespace jord::trace
