//===- dist/Protocol.h - Coordinator/joiner frame vocabulary ----*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The message vocabulary of the distributed checking service (DESIGN.md
/// §14). Every frame is a JSON object with a "kind" member, carried over
/// the length-prefixed byte framing of dist/Wire.h:
///
///   joiner -> coordinator        coordinator -> joiner
///   -------------------------    ----------------------------
///   hello {protocol, format}     hello_ok {meta, heartbeat_ms,
///                                          revoke_ms}
///                                refuse {reason}
///   need_work                    lease {id, bound, roots, items}
///   result {id, ...}             done
///   heartbeat
///
/// A joiner sends need_work once per connection, after hello_ok: every
/// result also asks for the next lease, and a need_work while holding a
/// lease is ignored. Joiners that ask after every result therefore
/// interoperate both ways without a ProtocolVersion bump.
///
/// Payload encodings are the checkpoint dialect (session/Serial.h), so
/// the wire is versioned by exactly two numbers: ProtocolVersion (the
/// frame vocabulary) and the checkpoint format version (the payload
/// encodings). A coordinator refuses a joiner that disagrees on either.
///
/// The lease seam — LeaseRequest in, LeaseResult out — is a plain
/// std::function so the execution side (tools, tests, benches) can plug
/// in either engine, or a hostile fake.
///
//===----------------------------------------------------------------------===//

#ifndef ICB_DIST_PROTOCOL_H
#define ICB_DIST_PROTOCOL_H

#include "obs/Metrics.h"
#include "search/SearchTypes.h"
#include "session/Checkpoint.h"
#include "session/Json.h"
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace icb::dist {

/// The frame vocabulary version. Bump on any incompatible change to the
/// frames below; the payload encodings are versioned separately by the
/// checkpoint format (session::checkpointFormatVersion()).
inline constexpr uint64_t ProtocolVersion = 1;

/// One batch of frontier work handed to a joiner. Roots leases carry no
/// items: the joiner seeds the bound-0 frontier from its own executor
/// (exactly as a local run would) and returns it unexecuted.
struct LeaseRequest {
  bool Roots = false;
  unsigned Bound = 0;
  std::vector<search::SavedWorkItem> Items;
};

/// Everything one executed (or seeded) lease reports back. Digest vectors
/// are the lease-local distinct sets; the coordinator folds them into its
/// authoritative caches to reconstruct the global hit/miss counter split
/// (see dist/Coordinator.cpp).
struct LeaseResult {
  bool Completed = false; ///< The lease ran to exhaustion (no leftovers).
  search::SearchStats Stats;
  std::vector<search::Bug> Bugs;
  std::vector<search::SavedWorkItem> Deferred;  ///< Published for c + 1.
  std::vector<search::SavedWorkItem> Remaining; ///< Unexecuted leftovers.
  std::vector<uint64_t> SeenDigests;
  std::vector<uint64_t> TerminalDigests;
  std::vector<uint64_t> ItemDigests;
  obs::MetricsSnapshot Metrics;
};

/// Executes one lease. The runner owns executor construction (fresh
/// engine, fresh caches, fresh metrics registry per lease).
using LeaseRunner = std::function<LeaseResult(const LeaseRequest &)>;

// --- Frame constructors --------------------------------------------------

/// \p Reconnect marks a joiner re-hello after a connection loss (joiner
/// accounting only — the handshake is otherwise identical).
session::JsonValue helloFrame(uint64_t Protocol, uint64_t Format,
                              bool Reconnect = false);
session::JsonValue helloOkFrame(const session::CheckpointMeta &Meta,
                                uint64_t HeartbeatMillis,
                                uint64_t RevokeMillis);
session::JsonValue refuseFrame(const std::string &Reason);
session::JsonValue needWorkFrame();
session::JsonValue heartbeatFrame();
session::JsonValue doneFrame();
session::JsonValue leaseFrame(uint64_t Id, const LeaseRequest &Req);
session::JsonValue resultFrame(uint64_t Id, const LeaseResult &Res);

// --- Frame decoders ------------------------------------------------------
// Strict: false on any missing or ill-typed field, like the session
// loaders. The caller dispatches on frameKind() first.

/// The "kind" member, or "" when absent/ill-typed.
std::string frameKind(const session::JsonValue &V);

bool helloFromJson(const session::JsonValue &V, uint64_t &Protocol,
                   uint64_t &Format);
bool helloOkFromJson(const session::JsonValue &V,
                     session::CheckpointMeta &Meta,
                     uint64_t &HeartbeatMillis, uint64_t &RevokeMillis);
bool refuseFromJson(const session::JsonValue &V, std::string &Reason);
bool leaseFromJson(const session::JsonValue &V, uint64_t &Id,
                   LeaseRequest &Req);
bool resultFromJson(const session::JsonValue &V, uint64_t &Id,
                    LeaseResult &Res);

} // namespace icb::dist

#endif // ICB_DIST_PROTOCOL_H
