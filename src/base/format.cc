#include "src/base/format.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace ntrace {

std::string FormatBytes(double bytes) {
  char buf[64];
  const double abs = std::fabs(bytes);
  if (abs < 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.0fB", bytes);
  } else if (abs < 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1fKB", bytes / 1024.0);
  } else if (abs < 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1fMB", bytes / (1024.0 * 1024.0));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fGB", bytes / (1024.0 * 1024.0 * 1024.0));
  }
  return buf;
}

std::string FormatF(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string FormatPct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string RenderTable(const std::vector<std::string>& header,
                        const std::vector<std::vector<std::string>>& rows) {
  const size_t cols = header.size();
  std::vector<size_t> width(cols, 0);
  for (size_t c = 0; c < cols; ++c) {
    width[c] = header[c].size();
  }
  for (const auto& row : rows) {
    for (size_t c = 0; c < std::min(cols, row.size()); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < cols; ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      out << cell;
      if (c + 1 < cols) {
        out << std::string(width[c] - cell.size() + 2, ' ');
      }
    }
    out << '\n';
  };
  emit_row(header);
  size_t total = 0;
  for (size_t c = 0; c < cols; ++c) {
    total += width[c] + (c + 1 < cols ? 2 : 0);
  }
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows) {
    emit_row(row);
  }
  return out.str();
}

std::string AsciiLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(AsciiFold(c)); });
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (AsciiFold(static_cast<unsigned char>(a[i])) !=
        AsciiFold(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string PathExtension(std::string_view path) {
  const size_t slash = path.find_last_of('\\');
  const std::string_view name = slash == std::string_view::npos ? path : path.substr(slash + 1);
  const size_t dot = name.find_last_of('.');
  if (dot == std::string_view::npos || dot == 0) {
    return "";
  }
  return AsciiLower(name.substr(dot));
}

std::vector<std::string> SplitPath(std::string_view path) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= path.size()) {
    size_t end = path.find('\\', start);
    if (end == std::string_view::npos) {
      end = path.size();
    }
    if (end > start) {
      parts.emplace_back(path.substr(start, end - start));
    }
    if (end == path.size()) {
      break;
    }
    start = end + 1;
  }
  return parts;
}

size_t CountPathComponents(std::string_view path) {
  size_t count = 0;
  bool in_part = false;
  for (const char c : path) {
    const bool separator = c == '\\';
    count += !separator && !in_part;
    in_part = !separator;
  }
  return count;
}

std::string JoinPath(const std::vector<std::string>& components) {
  std::string out;
  for (size_t i = 0; i < components.size(); ++i) {
    if (i > 0) {
      out += '\\';
    }
    out += components[i];
  }
  return out;
}

}  // namespace ntrace
