// A raw-socket client that holds one HTTP connection open across requests,
// for the keep-alive tests: it sends bytes as given and reads responses one
// at a time, framed by Content-Length, so a test can see exactly what the
// server sent on the connection and when it closed it.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <string>

#include "util/string_util.h"

namespace altroute {
namespace testing_http {

class KeepAliveClient {
 public:
  /// Connects to 127.0.0.1:`port`. Every read gives up after
  /// `read_timeout_ms`, so a server that neither answers nor closes fails
  /// the test instead of hanging it.
  explicit KeepAliveClient(uint16_t port, int read_timeout_ms = 5000) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    timeval tv{};
    tv.tv_sec = read_timeout_ms / 1000;
    tv.tv_usec = (read_timeout_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~KeepAliveClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  KeepAliveClient(const KeepAliveClient&) = delete;
  KeepAliveClient& operator=(const KeepAliveClient&) = delete;

  bool connected() const { return connected_; }

  void Send(const std::string& bytes) {
    ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  }

  /// Sends "GET `target` HTTP/1.1" with no Connection header.
  void SendGet(const std::string& target) {
    Send("GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
  }

  /// The next whole response (status line, headers and body), or "" when
  /// the connection ends or goes silent first.
  std::string ReadResponse() {
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return "";
    }
    const std::string head = buffer_.substr(0, header_end);
    size_t length = 0;
    const std::string value = HeaderValue(head, "Content-Length");
    if (auto parsed = ParseInt64(value); parsed.ok() && *parsed >= 0) {
      length = static_cast<size_t>(*parsed);
    }
    const size_t total = header_end + 4 + length;
    while (buffer_.size() < total) {
      if (!Fill()) return "";
    }
    std::string response = buffer_.substr(0, total);
    buffer_.erase(0, total);
    return response;
  }

  /// True when the server has closed the connection and nothing unread is
  /// left: a read returns end of stream (or a reset) rather than bytes or
  /// a timeout.
  bool ReadsEof() {
    if (!buffer_.empty()) return false;
    char c;
    const ssize_t n = ::recv(fd_, &c, 1, 0);
    if (n > 0) buffer_.push_back(c);
    return n == 0 || (n < 0 && errno == ECONNRESET);
  }

  /// The value of header `name` in a response's head ("" when absent).
  static std::string HeaderValue(const std::string& response,
                                 const std::string& name) {
    const std::string head = response.substr(0, response.find("\r\n\r\n"));
    const std::string key = "\r\n" + ToLower(name) + ":";
    const std::string lower = ToLower(head);
    const size_t at = lower.find(key);
    if (at == std::string::npos) return "";
    const size_t begin = at + key.size();
    const size_t end = head.find("\r\n", begin);
    return std::string(Trim(head.substr(begin, end - begin)));
  }

  /// The numeric status of a response, 0 when it has none.
  static int Status(const std::string& response) {
    if (response.size() < 12 || response.compare(0, 5, "HTTP/") != 0) {
      return 0;
    }
    return static_cast<int>(
        ParseInt64(response.substr(9, 3)).ValueOr(0));
  }

 private:
  bool Fill() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

}  // namespace testing_http
}  // namespace altroute
