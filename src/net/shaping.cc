#include "src/net/shaping.h"

#include <cassert>

namespace bolted::net {

uint64_t CellsFor(const ShapingPolicy& policy, uint64_t payload_bytes) {
  if (payload_bytes == 0) {
    return 0;
  }
  return (payload_bytes + policy.cell_bytes - 1) / policy.cell_bytes;
}

uint64_t PaddedBytes(const ShapingPolicy& policy, uint64_t payload_bytes) {
  return CellsFor(policy, payload_bytes) * policy.cell_bytes;
}

double PaddingOverhead(const ShapingPolicy& policy, uint64_t payload_bytes) {
  if (payload_bytes == 0) {
    return 1.0;
  }
  return static_cast<double>(PaddedBytes(policy, payload_bytes)) /
         static_cast<double>(payload_bytes);
}

sim::Duration DrainTime(const ShapingPolicy& policy, uint64_t payload_bytes,
                        uint64_t backlog_cells) {
  const double cells =
      static_cast<double>(CellsFor(policy, payload_bytes) + backlog_cells);
  return sim::Duration::SecondsF(cells / policy.cells_per_second);
}

ShapedChannel::ShapedChannel(sim::Simulation& sim, Endpoint& source,
                             Address destination, IpsecContext& ipsec,
                             const ShapingPolicy& policy)
    : sim_(sim), source_(source), destination_(destination), ipsec_(ipsec),
      policy_(policy) {
  assert(policy.cell_bytes > 8);
}

void ShapedChannel::Submit(crypto::Bytes payload) {
  // Segment into cells; each carries a 4-byte length header so the
  // receiver can strip padding.
  size_t offset = 0;
  const uint64_t body = policy_.cell_bytes - 4;
  while (offset < payload.size()) {
    const size_t take = std::min<size_t>(body, payload.size() - offset);
    crypto::Bytes cell;
    crypto::AppendU32(cell, static_cast<uint32_t>(take));
    cell.insert(cell.end(), payload.begin() + static_cast<ptrdiff_t>(offset),
                payload.begin() + static_cast<ptrdiff_t>(offset + take));
    cell.resize(policy_.cell_bytes, 0);  // pad to the fixed size
    queue_.push_back(std::move(cell));
    offset += take;
  }
}

void ShapedChannel::EmitCell(crypto::ByteView plaintext_cell, bool chaff) {
  // Every cell — data or chaff — is ESP-sealed, so ciphertexts are
  // indistinguishable and uniformly sized.
  const auto sealed = ipsec_.Seal(destination_, plaintext_cell);
  if (!sealed) {
    return;  // no SA: the shaper stays silent rather than leak plaintext
  }
  net::Message frame;
  frame.kind = "shaped.cell";
  frame.payload = *sealed;
  source_.Post(destination_, std::move(frame));
  if (chaff) {
    ++chaff_cells_;
  } else {
    ++data_cells_;
  }
}

sim::Task ShapedChannel::RunClock(uint64_t slots) {
  const sim::Duration tick = sim::Duration::SecondsF(1.0 / policy_.cells_per_second);
  for (uint64_t slot = 0; slot < slots; ++slot) {
    co_await sim::Delay(sim_, tick);
    if (!queue_.empty()) {
      const crypto::Bytes cell = std::move(queue_.front());
      queue_.pop_front();
      EmitCell(cell, /*chaff=*/false);
    } else {
      // Chaff: a zero-length marker plus deterministic filler.
      crypto::Bytes cell;
      crypto::AppendU32(cell, 0);
      crypto::AppendU64(cell, chaff_counter_++);
      cell.resize(policy_.cell_bytes, 0);
      EmitCell(cell, /*chaff=*/true);
    }
  }
}

}  // namespace bolted::net
