// osel/ir/type.h — scalar element types of the kernel IR.
#pragma once

#include <cstddef>
#include <string>

namespace osel::ir {

/// Element types supported by kernel arrays and scalars. The functional
/// interpreter computes in double precision regardless; the type determines
/// transfer sizes, cache footprints, and which functional unit the MCA
/// lowering targets.
enum class ScalarType { F32, F64, I32, I64 };

/// Size of one element in bytes.
[[nodiscard]] constexpr std::size_t sizeOf(ScalarType type) {
  switch (type) {
    case ScalarType::F32:
    case ScalarType::I32:
      return 4;
    case ScalarType::F64:
    case ScalarType::I64:
      return 8;
  }
  return 8;
}

[[nodiscard]] std::string toString(ScalarType type);

}  // namespace osel::ir
