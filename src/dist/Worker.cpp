//===- dist/Worker.cpp - Joiner protocol loop -----------------------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//

#include "dist/Worker.h"
#include "dist/Net.h"
#include "dist/Wire.h"
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <poll.h>
#include <sys/eventfd.h>
#include <thread>
#include <unistd.h>

using namespace icb;
using namespace icb::dist;

namespace {

uint64_t nowMillis() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One live connection to the coordinator.
struct Session {
  int Fd = -1;
  FrameReader Reader;
  bool Eof = false; ///< The coordinator closed its side.

  ~Session() { closeFd(Fd); }

  bool send(const session::JsonValue &Frame) {
    return sendAll(Fd, encodeFrame(Frame));
  }

  /// Waits up to \p TimeoutMillis for one frame, or until \p WakeFd (when
  /// not -1) is readable. Returns Ok, NeedMore (timeout or wake-up), or
  /// Error (EOF or protocol garbage). Frames that arrived with the EOF
  /// are still returned first.
  DecodeStatus recvFrame(session::JsonValue &Out, uint64_t TimeoutMillis,
                         int WakeFd = -1) {
    uint64_t Deadline = nowMillis() + TimeoutMillis;
    while (true) {
      std::string Error;
      DecodeStatus S = Reader.next(Out, &Error);
      if (S != DecodeStatus::NeedMore)
        return S;
      if (Eof)
        return DecodeStatus::Error;
      uint64_t Now = nowMillis();
      if (Now >= Deadline)
        return DecodeStatus::NeedMore;
      pollfd P[2] = {{Fd, POLLIN, 0}, {WakeFd, POLLIN, 0}};
      int N = ::poll(P, WakeFd >= 0 ? 2 : 1, static_cast<int>(Deadline - Now));
      if (N < 0 && errno == EINTR)
        continue;
      if (N < 0)
        return DecodeStatus::Error;
      if (N == 0)
        return DecodeStatus::NeedMore;
      if (P[0].revents) {
        std::string Bytes;
        Eof = !recvSome(Fd, Bytes);
        Reader.feed(Bytes.data(), Bytes.size());
        continue;
      }
      return DecodeStatus::NeedMore; // Woken.
    }
  }
};

/// The lease thread's "result ready" signal, pollable beside the socket.
struct ResultSignal {
  int Fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);

  ResultSignal() = default;
  ResultSignal(const ResultSignal &) = delete;
  ResultSignal &operator=(const ResultSignal &) = delete;
  ~ResultSignal() { closeFd(Fd); }

  void signal() {
    uint64_t One = 1;
    ssize_t Rc = ::write(Fd, &One, sizeof(One));
    (void)Rc; // Cannot fail below the counter's 2^64 - 2 ceiling.
  }

  void reset() {
    uint64_t Count = 0;
    ssize_t Rc = ::read(Fd, &Count, sizeof(Count));
    (void)Rc; // EAGAIN when already clear.
  }
};

} // namespace

int Worker::run() {
  bool EverConnected = false;
  unsigned Attempt = 0;
  uint64_t HeartbeatMillis = 1000;
  ResultSignal Wake;
  if (Wake.Fd < 0) {
    ErrorMsg = "eventfd: " + std::string(std::strerror(errno));
    return WorkerNetFail;
  }

  while (true) {
    // --- Connect (capped exponential backoff) --------------------------
    Endpoint Ep;
    if (!parseEndpoint(Opts.Connect, Ep, &ErrorMsg))
      return WorkerRefused;
    std::string ConnErr;
    Session S;
    S.Fd = connectTo(Ep, &ConnErr);
    if (S.Fd < 0) {
      if (++Attempt >= Opts.MaxConnectAttempts) {
        ErrorMsg = ConnErr + " (after " + std::to_string(Attempt) +
                   " attempts)";
        return WorkerNetFail;
      }
      uint64_t Backoff = Opts.BackoffBaseMillis;
      for (unsigned I = 1; I < Attempt && Backoff < Opts.BackoffCapMillis;
           ++I)
        Backoff *= 2;
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min(Backoff, Opts.BackoffCapMillis)));
      continue;
    }
    setNonBlocking(S.Fd);

    // --- Hello ---------------------------------------------------------
    if (!S.send(helloFrame(ProtocolVersion,
                           session::checkpointFormatVersion(),
                           /*Reconnect=*/EverConnected))) {
      ++Attempt;
      continue;
    }
    session::JsonValue Frame;
    DecodeStatus St = S.recvFrame(Frame, 10000);
    if (St != DecodeStatus::Ok) {
      if (++Attempt >= Opts.MaxConnectAttempts) {
        ErrorMsg = "no hello_ok from coordinator";
        return WorkerNetFail;
      }
      continue;
    }
    std::string Kind = frameKind(Frame);
    if (Kind == "refuse") {
      refuseFromJson(Frame, ErrorMsg);
      if (ErrorMsg.empty())
        ErrorMsg = "coordinator refused the hello";
      return WorkerRefused;
    }
    session::CheckpointMeta Meta;
    uint64_t RevokeMillis = 5000;
    if (Kind != "hello_ok" ||
        !helloOkFromJson(Frame, Meta, HeartbeatMillis, RevokeMillis)) {
      ErrorMsg = "malformed handshake from coordinator";
      return WorkerRefused;
    }
    if (Opts.OnAdopt && !Opts.OnAdopt(Meta, &ErrorMsg))
      return WorkerRefused;
    EverConnected = true;
    Attempt = 0;

    // --- Lease loop ----------------------------------------------------
    // One need_work per connection: the coordinator reads every result as
    // the next request, so asking again would only be a duplicate.
    if (!S.send(needWorkFrame()))
      continue;
    while (true) {
      // Wait for a lease (or done), heartbeating so an idle joiner at the
      // bound barrier is not revoked.
      LeaseRequest Req;
      uint64_t LeaseId = 0;
      bool HaveLease = false;
      while (!HaveLease) {
        DecodeStatus W = S.recvFrame(Frame, HeartbeatMillis);
        if (W == DecodeStatus::Error)
          break;
        if (W == DecodeStatus::NeedMore) {
          if (!S.send(heartbeatFrame()))
            break;
          continue;
        }
        Kind = frameKind(Frame);
        if (Kind == "done")
          return WorkerDone;
        if (Kind == "lease" && leaseFromJson(Frame, LeaseId, Req)) {
          HaveLease = true;
          break;
        }
        // Anything else is protocol noise; drop the connection.
        break;
      }
      if (!HaveLease)
        break;

      // Execute on a separate thread, which signals Wake when the result
      // is ready; meanwhile keep the protocol loop heartbeating so a long
      // lease does not look like a dead joiner.
      LeaseResult Res;
      std::atomic<bool> ResultReady{false};
      std::thread Exec([&] {
        Res = Opts.Runner(Req);
        ResultReady.store(true, std::memory_order_release);
        Wake.signal();
      });
      bool Lost = false, DoneSeen = false;
      uint64_t NextBeat = nowMillis() + HeartbeatMillis / 2;
      while (!ResultReady.load(std::memory_order_acquire)) {
        uint64_t Now = nowMillis();
        if (Now >= NextBeat) {
          if (!S.send(heartbeatFrame())) {
            Lost = true;
            break;
          }
          NextBeat = Now + HeartbeatMillis / 2;
        }
        DecodeStatus W = S.recvFrame(Frame, NextBeat - Now, Wake.Fd);
        if (W == DecodeStatus::Error) {
          Lost = true;
          break;
        }
        if (W == DecodeStatus::Ok && frameKind(Frame) == "done") {
          DoneSeen = true;
          break;
        }
      }
      Exec.join();
      Wake.reset();
      if (DoneSeen)
        return WorkerDone; // Run ended under us; the result is moot.
      // On a lost connection the coordinator revoked this lease on our
      // EOF — the result must be discarded, never delivered on a new
      // connection.
      if (Lost)
        break;
      ++LeaseCount;
      if (!S.send(resultFrame(LeaseId, Res)))
        break;
    }
    // Fall through to reconnect (fresh hello, marked as such).
  }
}
