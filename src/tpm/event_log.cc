#include "src/tpm/event_log.h"

#include <cassert>

#include "src/crypto/wire.h"

namespace bolted::tpm {

void EventLog::Add(int pcr_index, const crypto::Digest& measurement,
                   std::string description) {
  assert(pcr_index >= 0 && pcr_index < kNumPcrs);
  events_.push_back(MeasurementEvent{pcr_index, measurement, std::move(description)});
}

std::array<crypto::Digest, kNumPcrs> EventLog::ReplayPcrs() const {
  std::array<crypto::Digest, kNumPcrs> pcrs{};
  for (const MeasurementEvent& event : events_) {
    auto& pcr = pcrs[static_cast<size_t>(event.pcr_index)];
    pcr = ExtendDigest(pcr, event.measurement);
  }
  return pcrs;
}

EventLog EventLog::SubLog(size_t from) const {
  EventLog out;
  if (from < events_.size()) {
    out.events_.assign(events_.begin() + static_cast<ptrdiff_t>(from), events_.end());
  }
  return out;
}

crypto::Bytes EventLog::Serialize() const {
  crypto::WireWriter writer;
  writer.U32(static_cast<uint32_t>(events_.size()));
  for (const MeasurementEvent& event : events_) {
    writer.U32(static_cast<uint32_t>(event.pcr_index))
        .Digest(event.measurement)
        .Str(event.description);
  }
  return writer.Take();
}

std::optional<EventLog> EventLog::Deserialize(crypto::ByteView data) {
  crypto::WireReader reader(data);
  const uint32_t count = reader.U32();
  if (!reader.ok() || count > 1u << 20) {
    return std::nullopt;
  }
  EventLog log;
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t pcr = reader.U32();
    MeasurementEvent event{.pcr_index = static_cast<int>(pcr),
                           .measurement = reader.Digest(),
                           .description = reader.Str()};
    if (!reader.ok() || pcr >= static_cast<uint32_t>(kNumPcrs)) {
      return std::nullopt;
    }
    log.events_.push_back(std::move(event));
  }
  if (!reader.AtEnd()) {
    return std::nullopt;
  }
  return log;
}

}  // namespace bolted::tpm
