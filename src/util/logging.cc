#include "util/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace fta {
namespace {

std::atomic<LogLevel> g_log_level{LogLevel::kInfo};
std::atomic<LogSink*> g_log_sink{nullptr};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

/// Trims a path down to its basename for compact log prefixes.
const char* Basename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

}  // namespace

void SetLogLevel(LogLevel level) { g_log_level.store(level); }
LogLevel GetLogLevel() { return g_log_level.load(); }

LogSink* SetLogSink(LogSink* sink) { return g_log_sink.exchange(sink); }

void CaptureLogSink::Write(LogLevel /*level*/, std::string_view line) {
  MutexLock lock(&mu_);
  lines_.emplace_back(line);
}

std::vector<std::string> CaptureLogSink::lines() const {
  MutexLock lock(&mu_);
  return lines_;
}

size_t CaptureLogSink::size() const {
  MutexLock lock(&mu_);
  return lines_.size();
}

void CaptureLogSink::Clear() {
  MutexLock lock(&mu_);
  lines_.clear();
}

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << "[" << LevelName(level) << " " << Basename(file) << ":" << line
          << "] ";
}

LogMessage::~LogMessage() {
  if (level_ < GetLogLevel()) return;
  std::string msg = stream_.str();
  if (LogSink* sink = g_log_sink.load()) {
    sink->Write(level_, msg);
    return;
  }
  // One buffered write including the newline: fwrite locks the FILE, so
  // concurrent pool-thread log lines can interleave with each other but
  // never split mid-line (two separate writes could).
  msg.push_back('\n');
  std::fwrite(msg.data(), 1, msg.size(), stderr);
}

void CheckFailed(const char* expr, const char* file, int line,
                 const std::string& extra) {
  // abort() discards buffered stdio output; flush what the program printed
  // (a bench's tables) so it survives a failed gate.
  std::fflush(stdout);
  std::fprintf(stderr, "[FATAL %s:%d] check failed: %s%s%s\n", Basename(file),
               line, expr, extra.empty() ? "" : " — ", extra.c_str());
  std::abort();
}

}  // namespace internal_logging
}  // namespace fta
