//===- dist/Net.cpp - Minimal TCP plumbing --------------------------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//

#include "dist/Net.h"
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace icb::dist {

bool parseEndpoint(const std::string &Addr, Endpoint &Out,
                   std::string *Error) {
  size_t Colon = Addr.rfind(':');
  if (Colon == std::string::npos || Colon == 0 ||
      Colon + 1 == Addr.size()) {
    if (Error)
      *Error = "expected HOST:PORT, got '" + Addr + "'";
    return false;
  }
  std::string PortText = Addr.substr(Colon + 1);
  unsigned long Port = 0;
  char *End = nullptr;
  errno = 0;
  Port = std::strtoul(PortText.c_str(), &End, 10);
  if (errno != 0 || *End != '\0' || Port > 65535) {
    if (Error)
      *Error = "bad port '" + PortText + "' in '" + Addr + "'";
    return false;
  }
  Out.Host = Addr.substr(0, Colon);
  Out.Port = static_cast<uint16_t>(Port);
  return true;
}

static bool resolve(const Endpoint &Ep, sockaddr_in &Out,
                    std::string *Error) {
  std::memset(&Out, 0, sizeof(Out));
  Out.sin_family = AF_INET;
  Out.sin_port = htons(Ep.Port);
  if (inet_pton(AF_INET, Ep.Host.c_str(), &Out.sin_addr) == 1)
    return true;
  addrinfo Hints{};
  Hints.ai_family = AF_INET;
  Hints.ai_socktype = SOCK_STREAM;
  addrinfo *Res = nullptr;
  int Rc = getaddrinfo(Ep.Host.c_str(), nullptr, &Hints, &Res);
  if (Rc != 0 || !Res) {
    if (Error)
      *Error = "cannot resolve '" + Ep.Host + "': " + gai_strerror(Rc);
    return false;
  }
  Out.sin_addr = reinterpret_cast<sockaddr_in *>(Res->ai_addr)->sin_addr;
  freeaddrinfo(Res);
  return true;
}

static void setNoDelay(int Fd) {
  int One = 1;
  setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
}

int listenOn(const Endpoint &Ep, std::string *Error) {
  sockaddr_in Addr;
  if (!resolve(Ep, Addr, Error))
    return -1;
  int Fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    if (Error)
      *Error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  int One = 1;
  setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  if (bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      listen(Fd, 64) != 0) {
    if (Error)
      *Error = "cannot listen on " + Ep.Host + ":" +
               std::to_string(Ep.Port) + ": " + std::strerror(errno);
    close(Fd);
    return -1;
  }
  setNonBlocking(Fd);
  return Fd;
}

uint16_t boundPort(int ListenFd) {
  sockaddr_in Addr;
  socklen_t Len = sizeof(Addr);
  if (getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len) != 0)
    return 0;
  return ntohs(Addr.sin_port);
}

int acceptConn(int ListenFd) {
  int Fd = accept(ListenFd, nullptr, nullptr);
  if (Fd < 0)
    return -1;
  setNoDelay(Fd);
  setNonBlocking(Fd);
  return Fd;
}

int connectTo(const Endpoint &Ep, std::string *Error) {
  sockaddr_in Addr;
  if (!resolve(Ep, Addr, Error))
    return -1;
  int Fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    if (Error)
      *Error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    if (Error)
      *Error = "cannot connect to " + Ep.Host + ":" +
               std::to_string(Ep.Port) + ": " + std::strerror(errno);
    close(Fd);
    return -1;
  }
  setNoDelay(Fd);
  return Fd;
}

bool sendAll(int Fd, const std::string &Bytes) {
  size_t Off = 0;
  while (Off != Bytes.size()) {
    ssize_t N = send(Fd, Bytes.data() + Off, Bytes.size() - Off,
                     MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Nonblocking coordinator side: wait for writability briefly.
        // poll, not select: FD_SET is undefined for fds >= FD_SETSIZE.
        pollfd P{Fd, POLLOUT, 0};
        if (poll(&P, 1, 1000) > 0)
          continue;
      }
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

bool recvSome(int Fd, std::string &Out) {
  char Buf[16384];
  while (true) {
    ssize_t N = recv(Fd, Buf, sizeof(Buf), 0);
    if (N > 0) {
      Out.append(Buf, static_cast<size_t>(N));
      if (N == static_cast<ssize_t>(sizeof(Buf)))
        continue; // Possibly more already queued.
      return true;
    }
    if (N == 0)
      return false; // Orderly EOF; what was read before it stays in Out.
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return true;
    return false;
  }
}

void closeFd(int Fd) {
  if (Fd >= 0)
    close(Fd);
}

void shutdownWrite(int Fd) {
  if (Fd >= 0)
    shutdown(Fd, SHUT_WR);
}

bool setNonBlocking(int Fd) {
  int Flags = fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

} // namespace icb::dist
