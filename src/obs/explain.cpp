#include "obs/explain.h"

namespace osel::obs {

const char* toString(DecisionPath path) {
  switch (path) {
    case DecisionPath::Compiled:
      return "compiled";
    case DecisionPath::Degenerate:
      return "degenerate";
  }
  return "?";
}

}  // namespace osel::obs
