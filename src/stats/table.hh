/**
 * @file
 * Aligned ASCII table printer used by the benchmark harnesses to emit the
 * same rows/series the paper's tables and figures report.
 */

#ifndef JORD_STATS_TABLE_HH
#define JORD_STATS_TABLE_HH

#include <string>
#include <vector>

namespace jord::stats {

/**
 * Collects rows of string cells and renders them with aligned columns.
 */
class Table
{
  public:
    /** Construct with column headers. */
    explicit Table(std::vector<std::string> headers);

    /** Append one row; cell count must match the header count. */
    void addRow(std::vector<std::string> cells);

    /** Convenience: printf-format a double cell. */
    static std::string cell(double value, const char *fmt = "%.2f");

    /** Convenience: integer cell. */
    static std::string cell(std::uint64_t value);

    /** Render the table with a header separator line. */
    std::string render() const;

    std::size_t numRows() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace jord::stats

#endif // JORD_STATS_TABLE_HH
