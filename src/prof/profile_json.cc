#include "prof/profile_json.hh"

#include <fstream>
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

} // namespace jord::prof
