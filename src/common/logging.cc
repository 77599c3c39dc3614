#include "common/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace fsd {
namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};
std::mutex g_log_mutex;

LogLevel InitialLevel() {
  const char* env = std::getenv("FSD_LOG_LEVEL");
  if (env == nullptr) return LogLevel::kWarn;
  if (std::strcmp(env, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(env, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(env, "error") == 0) return LogLevel::kError;
  return LogLevel::kWarn;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarn:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}

struct LevelInit {
  LevelInit() { g_level.store(static_cast<int>(InitialLevel())); }
};
LevelInit g_level_init;

}  // namespace

void LogV(LogLevel level, const char* file, int line, const char* fmt, ...) {
  if (static_cast<int>(level) < g_level.load(std::memory_order_relaxed)) {
    return;
  }
  const char* base = std::strrchr(file, '/');
  base = (base != nullptr) ? base + 1 : file;
  std::lock_guard<std::mutex> lock(g_log_mutex);
  std::fprintf(stderr, "[%s %s:%d] ", LevelName(level), base, line);
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace fsd
