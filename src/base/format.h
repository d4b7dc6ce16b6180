// Small formatting helpers shared by reports, analyzers and benches.

#ifndef SRC_BASE_FORMAT_H_
#define SRC_BASE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ntrace {

// "26.0KB", "4.2MB" style byte-count rendering (1 KB = 1024 bytes, as the
// paper's figures do).
std::string FormatBytes(double bytes);

// Fixed-precision double ("12.34").
std::string FormatF(double v, int precision = 2);

// Percentage ("12.3%").
std::string FormatPct(double fraction, int precision = 1);

// Render a simple fixed-width console table. `rows` includes no header;
// column widths are derived from content. Returns a multi-line string.
std::string RenderTable(const std::vector<std::string>& header,
                        const std::vector<std::vector<std::string>>& rows);

// The one case fold for names (NT file names are case-insensitive): 'A'-'Z'
// become 'a'-'z' and every other byte is left alone, which is all
// std::tolower does in the "C" locale -- without a library call per byte.
// CaseInsensitiveLess, EqualsIgnoreCase and AsciiLower all fold through it.
constexpr unsigned char AsciiFold(unsigned char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<unsigned char>(c + ('a' - 'A')) : c;
}
std::string AsciiLower(std::string_view s);
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// Returns the extension of a path including the dot, lowercased ("" if none).
std::string PathExtension(std::string_view path);

// Splits a backslash-separated NT path into components, skipping empties.
std::vector<std::string> SplitPath(std::string_view path);
// SplitPath(path).size(), without building the components.
size_t CountPathComponents(std::string_view path);

// Joins components with backslashes.
std::string JoinPath(const std::vector<std::string>& components);

}  // namespace ntrace

#endif  // SRC_BASE_FORMAT_H_
