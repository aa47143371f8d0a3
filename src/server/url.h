// URL utilities for the demo HTTP server: percent-decoding, query-string
// parsing and request-line/target splitting.
#pragma once

#include <map>
#include <string>
#include <string_view>

namespace altroute {

/// Percent-decodes a URL component ("%2C" -> ",", "+" -> " ").
std::string UrlDecode(std::string_view s);

/// Splits "a=1&b=two" into {a: "1", b: "two"} with percent-decoding.
/// Repeated keys keep the last value; keys without '=' map to "".
std::map<std::string, std::string> ParseQueryString(std::string_view query);

/// Splits a request target "/path?query" into path and raw query. The path
/// is NOT percent-decoded: routes are matched on the raw bytes so that
/// "/rou%74e" cannot alias "/route" (and pollute bounded-cardinality metric
/// labels); decode explicitly (e.g. for logging) with UrlDecode.
void SplitTarget(std::string_view target, std::string* path, std::string* query);

/// Parses an HTTP/1.1 request line ("GET /path HTTP/1.1") into method and
/// target, tolerating repeated spaces between tokens. Returns false when
/// fewer than two non-empty tokens are present. The HTTP version token is
/// optional; when `version` is given it receives it ("" when absent).
bool ParseRequestLine(std::string_view line, std::string* method,
                      std::string* target, std::string* version = nullptr);

}  // namespace altroute
