#include "runtime/batch.h"

#include <span>
#include <utility>

#include "obs/trace.h"

namespace osel::runtime {

void BatchArena::runRecord() {
  if (explainSession == nullptr) return;
  const std::span<obs::DecisionExplain> records(explains.data(), explained);
  for (obs::DecisionExplain& record : records) {
    record.overheadSeconds = explainOverhead;
  }
  std::exchange(explainSession, nullptr)->recordExplains(records);
}

}  // namespace osel::runtime
