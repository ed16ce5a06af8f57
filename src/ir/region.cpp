#include "ir/region.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "support/check.h"

namespace osel::ir {

using support::require;

std::string toString(Transfer transfer) {
  switch (transfer) {
    case Transfer::To:
      return "to";
    case Transfer::From:
      return "from";
    case Transfer::ToFrom:
      return "tofrom";
    case Transfer::Alloc:
      return "alloc";
  }
  return "?";
}

std::int64_t ArrayDecl::elementCount(const symbolic::Bindings& bindings) const {
  std::int64_t count = 1;
  for (const auto& extent : extents) {
    const std::int64_t value = extent.evaluate(bindings);
    if (value <= 0)
      require(false, "ArrayDecl: non-positive extent for " + name);
    count *= value;
  }
  return count;
}

std::int64_t ArrayDecl::byteSize(const symbolic::Bindings& bindings) const {
  return elementCount(bindings) * static_cast<std::int64_t>(sizeOf(elementType));
}

symbolic::Expr ArrayDecl::linearize(const std::vector<symbolic::Expr>& indices) const {
  if (indices.size() != extents.size())
    require(false, "ArrayDecl::linearize: rank mismatch on " + name);
  symbolic::Expr linear;
  for (std::size_t d = 0; d < indices.size(); ++d) {
    linear *= extents[d];
    linear += indices[d];
  }
  return linear;
}

const ArrayDecl& TargetRegion::array(const std::string& arrayName) const {
  const auto it = std::find_if(arrays.begin(), arrays.end(), [&](const ArrayDecl& a) {
    return a.name == arrayName;
  });
  if (it == arrays.end())
    require(false, "TargetRegion: unknown array " + arrayName);
  return *it;
}

bool TargetRegion::hasArray(const std::string& arrayName) const {
  return std::any_of(arrays.begin(), arrays.end(), [&](const ArrayDecl& a) {
    return a.name == arrayName;
  });
}

std::int64_t TargetRegion::flatTripCount(const symbolic::Bindings& bindings) const {
  std::int64_t trips = 1;
  for (const auto& dim : parallelDims) {
    const std::int64_t extent = dim.extent.evaluate(bindings);
    require(extent > 0, "TargetRegion: non-positive parallel extent");
    trips *= extent;
  }
  return trips;
}

std::int64_t TargetRegion::bytesToDevice(const symbolic::Bindings& bindings) const {
  std::int64_t bytes = 0;
  for (const auto& decl : arrays) {
    if (decl.transfer == Transfer::To || decl.transfer == Transfer::ToFrom)
      bytes += decl.byteSize(bindings);
  }
  return bytes;
}

std::int64_t TargetRegion::bytesFromDevice(const symbolic::Bindings& bindings) const {
  std::int64_t bytes = 0;
  for (const auto& decl : arrays) {
    if (decl.transfer == Transfer::From || decl.transfer == Transfer::ToFrom)
      bytes += decl.byteSize(bindings);
  }
  return bytes;
}

namespace {

/// Scope-tracking verifier walking the region body.
class Verifier {
 public:
  explicit Verifier(const TargetRegion& region) : region_(region) {
    for (const auto& param : region.params) {
      require(!param.empty(), "verify: empty parameter name");
      if (!scope_.insert(param).second)
        require(false, "verify: duplicate symbol " + param);
    }
    for (const auto& dim : region.parallelDims) {
      checkExprScope(dim.extent, "parallel extent");
      require(!dim.var.empty(), "verify: empty parallel loop variable");
      if (!scope_.insert(dim.var).second)
        require(false, "verify: duplicate symbol " + dim.var);
    }
  }

  void run() {
    std::set<std::string> arrayNames;
    for (const auto& decl : region_.arrays) {
      require(!decl.name.empty(), "verify: empty array name");
      if (!arrayNames.insert(decl.name).second)
        require(false, "verify: duplicate array " + decl.name);
      if (decl.extents.empty())
        require(false, "verify: array with no extents: " + decl.name);
      for (const auto& extent : decl.extents) checkExprScope(extent, "array extent");
    }
    checkBody(region_.body);
  }

 private:
  void checkExprScope(const symbolic::Expr& expr, const char* what) {
    for (const auto& sym : expr.freeSymbols()) {
      if (!scope_.contains(sym)) {
        require(false, "verify: symbol [" + sym + "] in " + what +
                           " is not in scope");
      }
    }
  }

  void checkValue(const Value& value) {
    switch (value.kind()) {
      case Value::Kind::Constant:
        return;
      case Value::Kind::Local:
        if (!locals_.contains(value.localName())) {
          require(false, "verify: local " + value.localName() +
                             " read before assignment");
        }
        return;
      case Value::Kind::ArrayRead: {
        if (!region_.hasArray(value.arrayName()))
          require(false,
                  "verify: read of undeclared array " + value.arrayName());
        const auto& decl = region_.array(value.arrayName());
        if (decl.extents.size() != value.indices().size())
          require(false, "verify: rank mismatch reading " + value.arrayName());
        for (const auto& index : value.indices()) checkExprScope(index, "array index");
        return;
      }
      case Value::Kind::IndexCast:
        checkExprScope(value.indexExpr(), "index cast");
        return;
      case Value::Kind::Binary:
        checkValue(value.lhs());
        checkValue(value.rhs());
        return;
      case Value::Kind::Unary:
        checkValue(value.operand());
        return;
    }
  }

  void checkBody(const std::vector<Stmt>& body) {
    for (const Stmt& stmt : body) {
      switch (stmt.kind()) {
        case Stmt::Kind::Assign:
          checkValue(stmt.value());
          locals_.insert(stmt.targetName());
          break;
        case Stmt::Kind::Store: {
          if (!region_.hasArray(stmt.targetName()))
            require(false,
                    "verify: store to undeclared array " + stmt.targetName());
          const auto& decl = region_.array(stmt.targetName());
          if (decl.extents.size() != stmt.storeIndices().size())
            require(false,
                    "verify: rank mismatch storing " + stmt.targetName());
          for (const auto& index : stmt.storeIndices())
            checkExprScope(index, "store index");
          checkValue(stmt.value());
          break;
        }
        case Stmt::Kind::SeqLoop: {
          checkExprScope(stmt.lowerBound(), "loop lower bound");
          checkExprScope(stmt.upperBound(), "loop upper bound");
          if (scope_.contains(stmt.loopVar()))
            require(false,
                    "verify: loop variable shadows symbol " + stmt.loopVar());
          scope_.insert(stmt.loopVar());
          checkBody(stmt.loopBody());
          scope_.erase(stmt.loopVar());
          break;
        }
        case Stmt::Kind::If: {
          checkValue(stmt.condition().lhs);
          checkValue(stmt.condition().rhs);
          // Locals assigned under a condition must not leak as definitely
          // assigned; verify branches with a copy of the local set.
          const std::set<std::string> saved = locals_;
          checkBody(stmt.thenBody());
          locals_ = saved;
          checkBody(stmt.elseBody());
          locals_ = saved;
          break;
        }
      }
    }
  }

  const TargetRegion& region_;
  std::set<std::string> scope_;   // params + live loop vars
  std::set<std::string> locals_;  // definitely-assigned scalar temporaries
};

}  // namespace

void TargetRegion::verify() const {
  require(!name.empty(), "verify: region with empty name");
  require(!parallelDims.empty(), "verify: region with no parallel dims");
  Verifier(*this).run();
}

std::string TargetRegion::toString() const {
  std::ostringstream out;
  out << "target region " << name << "(";
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i != 0) out << ", ";
    out << params[i];
  }
  out << ")\n";
  for (const auto& decl : arrays) {
    out << "  map(" << osel::ir::toString(decl.transfer) << ": " << decl.name << "[";
    for (std::size_t d = 0; d < decl.extents.size(); ++d) {
      if (d != 0) out << " x ";
      out << decl.extents[d].toString();
    }
    out << "] " << osel::ir::toString(decl.elementType) << ")\n";
  }
  std::string pad = "  ";
  for (const auto& dim : parallelDims) {
    out << pad << "parallel for (" << dim.var << " in [0, " << dim.extent.toString()
        << ")) {\n";
    pad += "  ";
  }
  for (const Stmt& stmt : body) out << stmt.toString(pad.size());
  for (std::size_t i = parallelDims.size(); i > 0; --i) {
    pad.resize(pad.size() - 2);
    out << pad << "}\n";
  }
  return out.str();
}

}  // namespace osel::ir
