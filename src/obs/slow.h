// osel/obs/slow.h — bounded slow-request capture (wide events).
//
// A tail-latency answer to the question the aggregate histograms cannot
// answer: *which* request was slow, and where inside the service did its
// time go? Any served request whose wall time exceeds a configurable
// threshold — or that a client trace-sampled explicitly — is captured as
// one fixed-size wide-event record: the wire trace id, client, batch
// shape, decision mix, policy state epoch, and the full per-stage
// breakdown (decode / decide / encode / send). The SlowRing is a
// BoundedRing<SlowRequestRecord> (obs/ring.h).
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/ring.h"

namespace osel::obs {

/// Why a request was captured (SlowRequestRecord::cause).
enum class SlowCause : std::uint8_t {
  Threshold,  ///< wall time exceeded the configured slow threshold
  Sampled,    ///< the client trace-sampled it (kTraceFlagSampled)
};

[[nodiscard]] const char* toString(SlowCause cause);

/// One slow request's wide-event record. Fixed-size; safe to copy into the
/// ring without touching the heap.
struct SlowRequestRecord {
  InlineLabel region{};     ///< NUL-terminated, truncated
  std::uint64_t seq = 0;    ///< record order, stamped by the ring
  std::int64_t atNs = 0;    ///< capture time, ns since session start
  std::uint64_t traceId = 0;    ///< wire trace id (0 when none attached)
  std::uint64_t clientId = 0;   ///< server-assigned connection id
  std::uint64_t requestId = 0;  ///< wire request id (row 0 for batches)
  std::uint32_t rows = 0;          ///< decisions served (1 for scalar)
  std::uint32_t regionGroups = 1;  ///< region groups in the frame
  std::uint32_t gpuDecisions = 0;      ///< decision mix: chose GPU
  std::uint32_t invalidDecisions = 0;  ///< decision mix: degraded rows
  std::uint64_t stateEpoch = 0;  ///< selection policy's refits()
  std::int64_t decodeNs = 0;  ///< frame parse + binding rebuild
  std::int64_t decideNs = 0;  ///< runtime decide / decideBatch
  std::int64_t encodeNs = 0;  ///< reply framing
  /// Encode end -> reply on the wire: per-frame bookkeeping after encode
  /// plus this frame's share of the flush write. The four stages tile
  /// wallNs exactly for request-reply clients.
  std::int64_t sendNs = 0;
  std::int64_t wallNs = 0;    ///< decode start -> send end
  SlowCause cause = SlowCause::Threshold;

  void setRegion(std::string_view name) noexcept { setLabel(region, name); }
  [[nodiscard]] std::string_view regionView() const {
    return std::string_view(region.data());
  }
};

using SlowRing = BoundedRing<SlowRequestRecord>;

}  // namespace osel::obs
