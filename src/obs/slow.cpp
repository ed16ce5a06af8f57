#include "obs/slow.h"

namespace osel::obs {

const char* toString(SlowCause cause) {
  switch (cause) {
    case SlowCause::Threshold:
      return "threshold";
    case SlowCause::Sampled:
      return "sampled";
  }
  return "?";
}

}  // namespace osel::obs
