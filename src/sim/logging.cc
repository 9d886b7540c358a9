#include "sim/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace jord::sim {

std::string
vstrprintf(const char *fmt, std::va_list args)
{
    std::va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (len < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(len) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(len));
}

std::string
strprintf(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(fmt, args);
    va_end(args);
    return s;
}

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "panic: %s\n", s.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "fatal: %s\n", s.c_str());
    std::exit(1);
}

} // namespace jord::sim
