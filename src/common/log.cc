#include "common/log.hh"

#include <chrono>
#include <cstdint>
#include <cstdio>

#include "common/mini_json.hh"

namespace mssr
{

namespace
{

double
unixSeconds()
{
    const auto now = std::chrono::system_clock::now().time_since_epoch();
    return std::chrono::duration<double>(now).count();
}

} // namespace

const char *
toString(LogLevel level)
{
    switch (level) {
      case LogLevel::Error: return "error";
      case LogLevel::Warn: return "warn";
      case LogLevel::Info: return "info";
      case LogLevel::Debug: return "debug";
    }
    return "?";
}

bool
parseLogLevel(const std::string &s, LogLevel &out)
{
    if (s == "error") { out = LogLevel::Error; return true; }
    if (s == "warn") { out = LogLevel::Warn; return true; }
    if (s == "info") { out = LogLevel::Info; return true; }
    if (s == "debug") { out = LogLevel::Debug; return true; }
    return false;
}

Logger::~Logger()
{
    closeJsonl();
}

Logger &
Logger::global()
{
    // The environment is read once, after construction, so a bad
    // MSSR_LOG can warn through the logger itself without recursion.
    static Logger instance;
    static bool configured = [] {
        if (const char *lvl = std::getenv("MSSR_LOG")) {
            LogLevel parsed;
            if (parseLogLevel(lvl, parsed)) {
                instance.setLevel(parsed);
            } else {
                instance.log(LogLevel::Warn, {},
                             detail::concat(
                                 "ignoring invalid MSSR_LOG='", lvl,
                                 "' (want error|warn|info|debug); "
                                 "keeping level '",
                                 toString(instance.level()), "'"));
            }
        }
        if (const char *path = std::getenv("MSSR_LOG_OUT"))
            instance.openJsonl(path);
        return true;
    }();
    (void)configured;
    return instance;
}

bool
Logger::openJsonl(const std::string &path)
{
    std::lock_guard<std::mutex> guard(mutex_);
    if (jsonlOpen_) {
        jsonl_.flush();
        jsonl_.close();
        jsonlOpen_ = false;
    }
    jsonl_.clear();
    jsonl_.open(path, std::ios::out | std::ios::trunc);
    if (!jsonl_) {
        // Emit the text record directly: we already hold the mutex.
        std::string line =
            detail::concat("warn: cannot open log file ", path, "\n");
        std::fputs(line.c_str(), stderr);
        return false;
    }
    jsonlOpen_ = true;
    return true;
}

void
Logger::closeJsonl()
{
    std::lock_guard<std::mutex> guard(mutex_);
    if (jsonlOpen_) {
        jsonl_.flush();
        jsonl_.close();
        jsonlOpen_ = false;
    }
}

void
Logger::log(LogLevel level, const std::string &subsys, const std::string &msg)
{
    // Render outside the lock; a single fputs keeps text lines whole
    // even when several threads report at once.
    std::string text(toString(level));
    text += ": ";
    if (!subsys.empty()) {
        text += '[';
        text += subsys;
        text += "] ";
    }
    text += msg;
    text += '\n';
    std::fputs(text.c_str(), stderr);

    std::lock_guard<std::mutex> guard(mutex_);
    if (!jsonlOpen_)
        return;
    char ts[32];
    std::snprintf(ts, sizeof(ts), "%.6f", unixSeconds());
    jsonl_ << "{\"ts\": " << ts
           << ", \"level\": \"" << toString(level) << '"';
    if (!subsys.empty())
        jsonl_ << ", \"subsys\": \"" << jsonEscape(subsys) << '"';
    jsonl_ << ", \"msg\": \"" << jsonEscape(msg) << "\"}\n";
    jsonl_.flush();
}

} // namespace mssr
