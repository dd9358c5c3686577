#include "support/strings.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace argo::support {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) noexcept {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

bool startsWith(std::string_view text, std::string_view prefix) noexcept {
  return text.substr(0, prefix.size()) == prefix;
}

std::string join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += sep;
    out += items[i];
  }
  return out;
}

std::string formatCycles(long long cycles) {
  std::string raw = std::to_string(cycles);
  std::string out;
  const bool neg = !raw.empty() && raw.front() == '-';
  const std::size_t first = neg ? 1 : 0;
  for (std::size_t i = first; i < raw.size(); ++i) {
    if (i != first && (raw.size() - i) % 3 == 0) out += '_';
    out += raw[i];
  }
  return neg ? "-" + out : out;
}

void appendf(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list measure;
  va_copy(measure, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, measure);
  va_end(measure);
  if (needed > 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(needed) + 1, fmt,
                   args);
    out.resize(at + static_cast<std::size_t>(needed));
  }
  va_end(args);
}

std::string jsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace argo::support
