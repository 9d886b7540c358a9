#include "stats/table.hh"

#include <algorithm>
#include <cstdint>

#include "sim/logging.hh"

namespace jord::stats {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size())
        sim::panic("table row has %zu cells, expected %zu",
                   cells.size(), headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::cell(double value, const char *fmt)
{
    // strprintf expects a literal-checked format; this narrow wrapper is
    // only ever called with numeric formats.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wformat-nonliteral"
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, value);
#pragma GCC diagnostic pop
    return buf;
}

std::string
Table::cell(std::uint64_t value)
{
    return sim::strprintf("%llu", static_cast<unsigned long long>(value));
}

std::string
Table::render() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto render_row = [&](const std::vector<std::string> &row) {
        std::string line;
        for (std::size_t c = 0; c < row.size(); ++c) {
            line += row[c];
            line += std::string(widths[c] - row[c].size(), ' ');
            if (c + 1 < row.size())
                line += "  ";
        }
        // Trim trailing spaces.
        while (!line.empty() && line.back() == ' ')
            line.pop_back();
        line += '\n';
        return line;
    };

    std::string out = render_row(headers_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    out += std::string(total, '-') + '\n';
    for (const auto &row : rows_)
        out += render_row(row);
    return out;
}

} // namespace jord::stats
