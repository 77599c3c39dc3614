// Minimal leveled logger (RocksDB Logger spirit, printf-style).
//
// Logging defaults to WARN so tests and benches stay quiet; the simulation
// runtime raises verbosity when FSD_LOG_LEVEL is set in the environment.
#ifndef FSD_COMMON_LOGGING_H_
#define FSD_COMMON_LOGGING_H_

#include <cstdarg>

namespace fsd {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// printf-style log emission; prefer the FSD_LOG macro.
void LogV(LogLevel level, const char* file, int line, const char* fmt, ...)
    __attribute__((format(printf, 4, 5)));

}  // namespace fsd

#define FSD_LOG(level, ...) \
  ::fsd::LogV(::fsd::LogLevel::level, __FILE__, __LINE__, __VA_ARGS__)

#endif  // FSD_COMMON_LOGGING_H_
