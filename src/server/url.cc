#include "server/url.h"

namespace altroute {

namespace {
int HexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size()) {
      const int hi = HexVal(s[i + 1]);
      const int lo = HexVal(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
      } else {
        out.push_back('%');  // malformed escape: keep literal
      }
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

std::map<std::string, std::string> ParseQueryString(std::string_view query) {
  std::map<std::string, std::string> out;
  size_t start = 0;
  while (start <= query.size()) {
    size_t end = query.find('&', start);
    if (end == std::string_view::npos) end = query.size();
    const std::string_view pair = query.substr(start, end - start);
    if (!pair.empty()) {
      const size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        out[UrlDecode(pair)] = "";
      } else {
        out[UrlDecode(pair.substr(0, eq))] = UrlDecode(pair.substr(eq + 1));
      }
    }
    if (end == query.size()) break;
    start = end + 1;
  }
  return out;
}

void SplitTarget(std::string_view target, std::string* path,
                 std::string* query) {
  const size_t q = target.find('?');
  if (q == std::string_view::npos) {
    *path = std::string(target);
    query->clear();
  } else {
    *path = std::string(target.substr(0, q));
    *query = std::string(target.substr(q + 1));
  }
}

bool ParseRequestLine(std::string_view line, std::string* method,
                      std::string* target, std::string* version) {
  std::string_view tokens[3];
  size_t found = 0;
  size_t i = 0;
  while (i < line.size() && found < 3) {
    while (i < line.size() && line[i] == ' ') ++i;  // skip repeated spaces
    const size_t begin = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > begin) tokens[found++] = line.substr(begin, i - begin);
  }
  if (found < 2) return false;
  *method = std::string(tokens[0]);
  *target = std::string(tokens[1]);
  if (version != nullptr) *version = std::string(tokens[2]);
  return true;
}

}  // namespace altroute
