// Seeded fuzzing of ParseHttpRequest, the parser every byte a client sends
// goes through: random bytes and mutated valid requests must never crash it
// or make it claim bytes it was not given, feeding the same bytes one at a
// time must yield the same requests as feeding them at once (a trickling
// client and a pipelining one are read alike), a body short of its
// Content-Length parses the same until the byte count it reports as needed
// has arrived (the server does not parse it again before), and a valid
// request is parsed exactly, whatever follows it. Fixed seeds keep every run
// identical; CI runs the suite under ASan.
#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "server/http_server.h"
#include "util/random.h"

namespace altroute {
namespace {

// Small limits, so random input reaches the 431 and oversized-body paths.
constexpr size_t kMaxHeader = 512;
constexpr size_t kMaxBody = 64;

/// Parses a copy of `bytes` in a heap block of exactly its size, so ASan
/// flags any read past the end, and checks what holds for every result.
HttpParseResult ParseExact(std::string_view bytes, bool at_eof) {
  std::unique_ptr<char[]> copy(new char[bytes.size()]);
  std::copy(bytes.begin(), bytes.end(), copy.get());
  HttpParseResult r = ParseHttpRequest(std::string_view(copy.get(), bytes.size()),
                                       kMaxHeader, kMaxBody, at_eof);
  EXPECT_LE(r.consumed, bytes.size());
  switch (r.kind) {
    case HttpParseResult::Kind::kNeedMore:
      EXPECT_EQ(r.consumed, 0u);
      if (r.needed > 0) {
        EXPECT_GT(r.needed, bytes.size());
      }
      if (at_eof) {
        EXPECT_TRUE(bytes.empty());
      }
      break;
    case HttpParseResult::Kind::kRequest:
      EXPECT_GT(r.consumed, 0u);
      EXPECT_LE(r.request.body.size(), kMaxBody);
      break;
    case HttpParseResult::Kind::kMalformed:
      EXPECT_TRUE(r.status == 400 || r.status == 431) << r.status;
      break;
  }
  return r;
}

/// Everything a result says, as one comparable string.
std::string Describe(const HttpParseResult& r) {
  std::string s;
  if (r.kind == HttpParseResult::Kind::kMalformed) {
    return "malformed " + std::to_string(r.status) + " " + r.error;
  }
  s += r.request.method + " " + r.request.path + " consumed=" +
       std::to_string(r.consumed) + (r.keep_alive ? " keep" : " close");
  for (const auto& [k, v] : r.request.query) s += " q:" + k + "=" + v;
  for (const auto& [k, v] : r.request.headers) s += " h:" + k + "=" + v;
  s += " body=" + r.request.body;
  return s;
}

/// The requests a connection would serve from `bytes` arriving at once:
/// parse, drop the consumed bytes, repeat until more bytes are needed or
/// the connection would close.
std::vector<std::string> ParseAllAtOnce(std::string_view bytes) {
  std::vector<std::string> out;
  for (;;) {
    const HttpParseResult r = ParseExact(bytes, /*at_eof=*/false);
    if (r.kind == HttpParseResult::Kind::kNeedMore) return out;
    out.push_back(Describe(r));
    if (r.kind == HttpParseResult::Kind::kMalformed || !r.keep_alive) {
      return out;
    }
    bytes.remove_prefix(r.consumed);
  }
}

/// The same bytes arriving one at a time.
std::vector<std::string> ParseByteAtATime(std::string_view bytes) {
  std::vector<std::string> out;
  std::string buffer;
  size_t needed = 0;  // the last kNeedMore's byte count
  for (const char c : bytes) {
    buffer.push_back(c);
    const HttpParseResult r = ParseExact(buffer, /*at_eof=*/false);
    // The server skips parsing below `needed`; skipping must lose nothing.
    if (buffer.size() < needed) {
      EXPECT_EQ(r.kind, HttpParseResult::Kind::kNeedMore) << buffer;
      EXPECT_EQ(r.needed, needed) << buffer;
    }
    if (r.kind == HttpParseResult::Kind::kNeedMore) {
      needed = r.needed;
      continue;
    }
    needed = 0;
    out.push_back(Describe(r));
    if (r.kind == HttpParseResult::Kind::kMalformed || !r.keep_alive) {
      return out;
    }
    buffer.erase(0, r.consumed);
  }
  return out;
}

/// A random well-formed request: GET or POST, a path with an optional
/// query, a few headers, and a body framed by one Content-Length.
std::string ValidRequest(Rng& rng) {
  static const char* const kHeaders[] = {
      "Host: localhost",       "Accept: */*",          "User-Agent: fuzz",
      "Connection: close",     "Connection: keep-alive", "X-Empty:",
      "X-Spaces:   padded   ",
  };
  const bool post = rng.NextUint64(2) == 0;
  std::string r = post ? "POST" : "GET";
  r += " /p" + std::to_string(rng.NextUint64(100));
  if (rng.NextUint64(2) == 0) {
    r += "?a=" + std::to_string(rng.NextUint64(1000)) + "&b=%20x+y";
  }
  r += rng.NextUint64(4) == 0 ? " HTTP/1.0\r\n" : " HTTP/1.1\r\n";
  const size_t headers = rng.NextUint64(4);
  for (size_t i = 0; i < headers; ++i) {
    r += kHeaders[rng.NextUint64(std::size(kHeaders))];
    r += "\r\n";
  }
  std::string body;
  if (post) {
    const size_t len = rng.NextUint64(kMaxBody + 1);
    for (size_t i = 0; i < len; ++i) {
      body.push_back(static_cast<char>(rng.NextUint64(256)));
    }
    r += "Content-Length: " + std::to_string(len) + "\r\n";
  }
  return r + "\r\n" + body;
}

/// Random bytes drawn mostly from the characters HTTP framing hinges on.
std::string RandomBytes(Rng& rng, size_t max_len) {
  static constexpr std::string_view kAlphabet = "\r\n :/?=&GETPOSH1.0-";
  std::string s;
  const size_t len = rng.NextUint64(max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(rng.NextUint64(3) == 0
                    ? static_cast<char>(rng.NextUint64(256))
                    : kAlphabet[rng.NextUint64(kAlphabet.size())]);
  }
  return s;
}

/// 1-4 byte edits: replace, delete, or insert a framing character.
void Mutate(Rng& rng, std::string* s) {
  static constexpr std::string_view kFraming = "\r\n: 0123456789";
  const int edits = 1 + static_cast<int>(rng.NextUint64(4));
  for (int e = 0; e < edits && !s->empty(); ++e) {
    const size_t pos = rng.NextUint64(s->size());
    switch (rng.NextUint64(3)) {
      case 0:
        (*s)[pos] = static_cast<char>(rng.NextUint64(256));
        break;
      case 1:
        s->erase(pos, 1);
        break;
      default:
        s->insert(pos, 1, kFraming[rng.NextUint64(kFraming.size())]);
    }
  }
}

class HttpParserFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HttpParserFuzz, RandomBytesNeverCrashOrOverConsume) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    const std::string bytes = RandomBytes(rng, 2 * kMaxHeader);
    ParseAllAtOnce(bytes);
    ParseExact(bytes, /*at_eof=*/true);
  }
}

TEST_P(HttpParserFuzz, ByteAtATimeMatchesAllAtOnce) {
  Rng rng(GetParam() + 100);
  for (int trial = 0; trial < 150; ++trial) {
    std::string bytes;
    const size_t requests = 1 + rng.NextUint64(3);
    for (size_t i = 0; i < requests; ++i) bytes += ValidRequest(rng);
    if (trial % 3 != 0) Mutate(rng, &bytes);
    if (trial % 5 == 0) bytes = RandomBytes(rng, kMaxHeader + 64);
    EXPECT_EQ(ParseByteAtATime(bytes), ParseAllAtOnce(bytes)) << bytes;
  }
}

TEST_P(HttpParserFuzz, ValidRequestIsParsedExactlyWhateverFollows) {
  Rng rng(GetParam() + 200);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string valid = ValidRequest(rng);
    const HttpParseResult alone = ParseExact(valid, /*at_eof=*/false);
    ASSERT_EQ(alone.kind, HttpParseResult::Kind::kRequest) << valid;
    ASSERT_EQ(alone.consumed, valid.size()) << valid;
    std::string followed = valid + RandomBytes(rng, 256);
    if (trial % 2 == 0) followed += ValidRequest(rng);
    const HttpParseResult r = ParseExact(followed, /*at_eof=*/trial % 3 == 0);
    ASSERT_EQ(r.kind, HttpParseResult::Kind::kRequest) << followed;
    EXPECT_EQ(r.consumed, valid.size()) << followed;
    EXPECT_EQ(Describe(r), Describe(alone)) << followed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HttpParserFuzz, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace altroute
