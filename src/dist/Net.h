//===- dist/Net.h - Minimal TCP plumbing ------------------------*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The socket layer of the distributed checker: IPv4 TCP only, blocking
/// connects, nonblocking accepted connections driven by the coordinator's
/// poll loop. Loopback is the designed-for deployment (the CI legs and
/// tests bind 127.0.0.1), but nothing below assumes it.
///
//===----------------------------------------------------------------------===//

#ifndef ICB_DIST_NET_H
#define ICB_DIST_NET_H

#include <cstdint>
#include <string>

namespace icb::dist {

/// A parsed "host:port" endpoint. Port 0 asks the kernel for an ephemeral
/// port (coordinator only; Listener::port() reports the choice).
struct Endpoint {
  std::string Host;
  uint16_t Port = 0;
};

/// Parses "HOST:PORT" (numeric IPv4 or a resolvable name). False with
/// \p Error on syntax errors; resolution failures surface at
/// connect/listen time.
bool parseEndpoint(const std::string &Addr, Endpoint &Out,
                   std::string *Error);

/// Binds and listens; returns the fd or -1 with \p Error.
int listenOn(const Endpoint &Ep, std::string *Error);

/// The locally bound port of a listening fd (resolves port 0).
uint16_t boundPort(int ListenFd);

/// Accepts one pending connection (nonblocking listen fd); returns the
/// connection fd with TCP_NODELAY set, or -1 when none is pending.
int acceptConn(int ListenFd);

/// Blocking connect; returns the fd with TCP_NODELAY set, or -1 with
/// \p Error.
int connectTo(const Endpoint &Ep, std::string *Error);

/// Writes all of \p Bytes (retrying short writes); false on any error.
bool sendAll(int Fd, const std::string &Bytes);

/// Reads whatever is available into \p Out (appending). Returns false on
/// EOF or a hard error, true otherwise (including "nothing available").
/// Bytes read before the EOF are appended either way: a peer's last frame
/// often arrives together with its FIN, so callers consume \p Out before
/// acting on a false return.
bool recvSome(int Fd, std::string &Out);

void closeFd(int Fd);

/// Half-closes \p Fd for writing (sends FIN): the peer reads everything
/// sent so far, then EOF, while this side can still drain what the peer
/// sends. Closing outright with unread input would reset the connection
/// and could destroy the peer's copy of the last frame.
void shutdownWrite(int Fd);

/// Marks \p Fd nonblocking (accepted coordinator connections).
bool setNonBlocking(int Fd);

} // namespace icb::dist

#endif // ICB_DIST_NET_H
