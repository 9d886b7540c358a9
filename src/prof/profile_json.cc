#include "prof/profile_json.hh"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "sim/logging.hh"

namespace jord::prof {

std::map<std::string, double>
loadFlatJson(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        sim::fatal("cannot open '%s'", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    if (text.find_first_not_of(" \t\r\n") == std::string::npos)
        sim::fatal("'%s' is empty, not a flat JSON summary", path.c_str());
    std::map<std::string, double> kv;
    if (!parseFlatJson(text, kv))
        sim::fatal("'%s' is not a flat {\"key\": number} JSON object "
                   "(truncated file?)",
                   path.c_str());
    return kv;
}

bool
contains(const std::string &key, const char *needle)
{
    return key.find(needle) != std::string::npos;
}

double
relativeRegression(double old_value, double new_value,
                   bool higher_is_better)
{
    if (old_value != 0) {
        double delta = (new_value - old_value) / std::fabs(old_value);
        return higher_is_better ? -delta : delta;
    }
    return new_value != 0 && !higher_is_better
               ? std::numeric_limits<double>::infinity()
               : 0;
}

namespace {

/** A --threshold value: a fraction ("0.1") or a percentage ("10%"). */
double
parseThreshold(const std::string &spec)
{
    char *end = nullptr;
    double value = std::strtod(spec.c_str(), &end);
    if (end == spec.c_str() || value < 0)
        sim::fatal("--threshold expects a fraction ('0.1') or a "
                   "percentage ('10%%'), got '%s'",
                   spec.c_str());
    if (*end == '%')
        value /= 100.0;
    else if (*end != '\0')
        sim::fatal("--threshold expects a fraction ('0.1') or a "
                   "percentage ('10%%'), got '%s'",
                   spec.c_str());
    return value;
}

int
diffFiles(const std::string &old_path, const std::string &new_path,
          double threshold, RegressionRule rule)
{
    auto old_kv = loadFlatJson(old_path);
    auto new_kv = loadFlatJson(new_path);

    unsigned regressions = 0, improvements = 0, compared = 0;
    for (const auto &[key, old_value] : old_kv) {
        auto it = new_kv.find(key);
        if (it == new_kv.end()) {
            std::printf("  %-28s only in %s\n", key.c_str(),
                        old_path.c_str());
            continue;
        }
        double new_value = it->second;
        std::optional<double> delta = rule(key, old_value, new_value);
        if (!delta)
            continue;
        ++compared;
        const char *mark = " ";
        if (*delta > threshold) {
            mark = "!";
            ++regressions;
        } else if (*delta < -threshold) {
            mark = "+";
            ++improvements;
        }
        std::printf("%s %-28s %12.6g -> %-12.6g (%+.1f%%)\n", mark,
                    key.c_str(), old_value, new_value,
                    100.0 * (old_value != 0
                                 ? (new_value - old_value) /
                                       std::fabs(old_value)
                                 : 0.0));
    }
    for (const auto &[key, value] : new_kv)
        if (!old_kv.count(key))
            std::printf("  %-28s only in %s\n", key.c_str(),
                        new_path.c_str());

    std::printf("%u metrics compared, %u regressed, %u improved "
                "(threshold %.1f%%)\n",
                compared, regressions, improvements,
                100.0 * threshold);
    return regressions ? 1 : 0;
}

} // namespace

int
diffCommand(const std::vector<std::string> &args, RegressionRule rule)
{
    std::vector<std::string> files;
    double threshold = 0.10;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg.rfind("--threshold", 0) == 0) {
            std::string spec;
            if (std::size_t eq = arg.find('='); eq != std::string::npos)
                spec = arg.substr(eq + 1);
            else if (i + 1 < args.size())
                spec = args[++i];
            else
                sim::fatal("--threshold requires a value");
            threshold = parseThreshold(spec);
        } else {
            files.push_back(arg);
        }
    }
    if (files.size() != 2)
        sim::fatal("diff expects OLD.json NEW.json");
    return diffFiles(files[0], files[1], threshold, rule);
}

} // namespace jord::prof
