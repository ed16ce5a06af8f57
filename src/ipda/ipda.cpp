#include "ipda/ipda.h"

#include <cstdlib>
#include <sstream>

#include "support/check.h"

namespace osel::ipda {

using support::require;

std::string toString(CoalescingClass value) {
  switch (value) {
    case CoalescingClass::Coalesced:
      return "coalesced";
    case CoalescingClass::Uniform:
      return "uniform";
    case CoalescingClass::Strided:
      return "strided";
    case CoalescingClass::Irregular:
      return "irregular";
  }
  return "?";
}

Classification StrideRecord::classify(const symbolic::Bindings& bindings) const {
  if (!affineInThreadVar) return Classification{};
  const symbolic::Expr bound = stride.substituteAll(bindings);
  const auto constant = bound.tryConstant();
  if (!constant.has_value()) {
    // Unresolved symbols remain: either runtime values the caller failed to
    // bind, or loop/thread variables — the stride changes from iteration to
    // iteration, which the models must treat as uncoalesced.
    return Classification{};
  }
  Classification result;
  const std::int64_t s = *constant;
  result.strideElements = std::abs(s);
  if (s == 0) {
    result.kind = CoalescingClass::Uniform;
  } else if (s == 1 || s == -1) {
    result.kind = CoalescingClass::Coalesced;
  } else {
    result.kind = CoalescingClass::Strided;
  }
  return result;
}

Analysis Analysis::analyze(const ir::TargetRegion& region) {
  region.verify();
  Analysis analysis;
  analysis.threadVar_ = region.parallelDims.back().var;
  const std::string& threadVar = analysis.threadVar_;

  for (ir::AccessSite& site : collectAccesses(region)) {
    StrideRecord record;
    const ir::ArrayDecl& decl = region.array(site.array);
    record.linearIndex = decl.linearize(site.indices);
    record.elementBytes = ir::sizeOf(decl.elementType);
    record.affineInThreadVar = record.linearIndex.isAffineIn({threadVar});
    if (record.affineInThreadVar) {
      // The stride is f(t+1) - f(t). For an address affine in t that
      // difference is exactly t's coefficient, which is cheaper to read off
      // than to substitute and subtract (the canonical forms are equal).
      record.stride = record.linearIndex.coefficientOf(threadVar);
    }
    record.site = std::move(site);
    analysis.records_.push_back(std::move(record));
  }
  return analysis;
}

Analysis::SiteCounts Analysis::classifySites(const symbolic::Bindings& bindings) const {
  SiteCounts counts;
  for (const StrideRecord& record : records_) {
    switch (record.classify(bindings).kind) {
      case CoalescingClass::Coalesced:
        ++counts.coalesced;
        break;
      case CoalescingClass::Uniform:
        ++counts.uniform;
        break;
      case CoalescingClass::Strided:
        ++counts.strided;
        break;
      case CoalescingClass::Irregular:
        ++counts.irregular;
        break;
    }
  }
  return counts;
}

bool Analysis::falseSharingRisk(const symbolic::Bindings& bindings,
                                std::int64_t cacheLineBytes) const {
  require(cacheLineBytes > 0, "falseSharingRisk: non-positive cache line");
  for (const StrideRecord& record : records_) {
    if (!record.site.isStore) continue;
    const Classification c = record.classify(bindings);
    if (!c.strideElements.has_value() || *c.strideElements == 0) continue;
    const std::int64_t strideBytes =
        *c.strideElements * static_cast<std::int64_t>(record.elementBytes);
    if (strideBytes < cacheLineBytes) return true;
  }
  return false;
}

std::string Analysis::toString() const {
  std::ostringstream out;
  for (const StrideRecord& record : records_) {
    out << "IPD_" << threadVar_ << "(" << record.site.array;
    for (const auto& index : record.site.indices)
      out << "[" << index.toString() << "]";
    out << ") = ";
    if (record.affineInThreadVar) {
      out << record.stride.toString();
    } else {
      out << "<non-affine in " << threadVar_ << ">";
    }
    if (record.site.isStore) out << "  (store)";
    out << "\n";
  }
  return out.str();
}

}  // namespace osel::ipda
