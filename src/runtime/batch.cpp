#include "runtime/batch.h"

#include <memory>
#include <span>
#include <utility>

#include "obs/trace.h"

namespace osel::runtime {

void BatchArena::backfill() {
  if (backfillCache == nullptr) return;
  const std::shared_ptr<DecisionCache> cache = std::move(backfillCache);
  cache->insertMany(backfillKeys, missRows, targets.data(), backfillEpoch);
}

void BatchArena::runRecord() {
  backfill();
  if (explainSession == nullptr) return;
  const std::span<obs::DecisionExplain> records(explains.data(), explained);
  for (obs::DecisionExplain& record : records) {
    record.overheadSeconds = explainOverhead;
  }
  std::exchange(explainSession, nullptr)->recordExplains(records);
}

}  // namespace osel::runtime
