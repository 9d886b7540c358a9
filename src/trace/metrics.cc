#include "trace/metrics.hh"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

namespace jord::trace {

namespace {

const char *
kindName(unsigned kind)
{
    switch (kind) {
      case 0: return "counter";
      case 1: return "gauge";
      case 2: return "distribution";
    }
    return "?";
}

} // namespace

MetricsRegistry::Entry &
MetricsRegistry::fetch(const std::string &name, Kind kind)
{
    auto it = metrics_.find(name);
    if (it != metrics_.end()) {
        if (it->second.kind != kind)
            throw std::logic_error(
                "metric '" + name + "' already registered as " +
                kindName(static_cast<unsigned>(it->second.kind)) +
                ", requested as " +
                kindName(static_cast<unsigned>(kind)));
        return it->second;
    }
    Entry entry;
    entry.kind = kind;
    switch (kind) {
      case Kind::Counter:
        entry.counter = std::make_unique<Counter>();
        break;
      case Kind::Gauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case Kind::Distribution:
        entry.dist = std::make_unique<Distribution>();
        break;
    }
    return metrics_.emplace(name, std::move(entry)).first->second;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    return *fetch(name, Kind::Counter).counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    return *fetch(name, Kind::Gauge).gauge;
}

Distribution &
MetricsRegistry::distribution(const std::string &name)
{
    return *fetch(name, Kind::Distribution).dist;
}

bool
MetricsRegistry::contains(const std::string &name) const
{
    return metrics_.count(name) != 0;
}

void
MetricsRegistry::writeCsv(std::ostream &out) const
{
    out << "name,kind,count,value,mean,min,max,p50,p99\n";
    char line[256];
    for (const auto &[name, entry] : metrics_) {
        switch (entry.kind) {
          case Kind::Counter:
            std::snprintf(line, sizeof(line),
                          ",counter,,%" PRIu64 ",,,,,\n",
                          entry.counter->value());
            break;
          case Kind::Gauge:
            std::snprintf(line, sizeof(line),
                          ",gauge,,%.6f,%.6f,,%.6f,,\n",
                          entry.gauge->value(), entry.gauge->mean(),
                          entry.gauge->max());
            break;
          case Kind::Distribution:
            std::snprintf(line, sizeof(line),
                          ",distribution,%" PRIu64 ",,%.6f,%" PRIu64
                          ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n",
                          entry.dist->count(), entry.dist->mean(),
                          entry.dist->min(), entry.dist->max(),
                          entry.dist->p50(), entry.dist->p99());
            break;
        }
        out << name << line;
    }
}

} // namespace jord::trace
