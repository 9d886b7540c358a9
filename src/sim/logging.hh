/**
 * @file
 * Error reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic() flags an internal simulator bug and aborts; fatal() flags a user
 * configuration error and exits cleanly.
 */

#ifndef JORD_SIM_LOGGING_HH
#define JORD_SIM_LOGGING_HH

#include <cstdarg>
#include <string>

namespace jord::sim {

/** Abort with a message: something that should never happen did happen. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Exit with a message: the user supplied an impossible configuration. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Format a printf-style message into a std::string. */
std::string vstrprintf(const char *fmt, std::va_list args);

/** Format a printf-style message into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace jord::sim

#endif // JORD_SIM_LOGGING_HH
