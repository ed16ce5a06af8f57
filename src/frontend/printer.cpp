#include "frontend/printer.h"

#include <array>
#include <cstdio>
#include <sstream>

#include "support/check.h"

namespace osel::frontend {

namespace {

/// Renders a symbolic index expression in kernel-language syntax
/// ("n*i + j - 2" — no paper-style brackets).
std::string indexToSource(const symbolic::Expr& expr) {
  if (expr.terms().empty()) return "0";
  std::ostringstream out;
  bool first = true;
  for (const auto& [mono, coeff] : expr.terms()) {
    std::int64_t magnitude = coeff;
    if (first) {
      if (coeff < 0) {
        out << "-";
        magnitude = -coeff;
      }
    } else {
      out << (coeff < 0 ? " - " : " + ");
      magnitude = coeff < 0 ? -coeff : coeff;
    }
    first = false;
    if (mono.empty()) {
      out << magnitude;
      continue;
    }
    bool emitted = false;
    if (magnitude != 1) {
      out << magnitude;
      emitted = true;
    }
    for (const std::string& sym : mono) {
      if (emitted) out << "*";
      out << sym;
      emitted = true;
    }
  }
  return out.str();
}

std::string literalToSource(double value) {
  std::array<char, 64> buffer{};
  std::snprintf(buffer.data(), buffer.size(), "%.17g", value);
  std::string text(buffer.data());
  // The language has no float syntax without a '.' or exponent for
  // non-integers, but integers parse fine either way; force a fractional
  // marker so negative-zero style oddities stay representable.
  if (text.find_first_of(".eE") == std::string::npos) text += ".0";
  return text;
}

std::string valueToSource(const ir::Value& value) {
  switch (value.kind()) {
    case ir::Value::Kind::Constant:
      return literalToSource(value.constantLiteral());
    case ir::Value::Kind::Local:
      return value.localName();
    case ir::Value::Kind::IndexCast: {
      const symbolic::Expr& expr = value.indexExpr();
      // Bare symbols parse straight back to IndexCast; composites fall back
      // to value arithmetic over IndexCasts (semantically identical).
      const std::string text = indexToSource(expr);
      return expr.terms().size() == 1 ? text : "(" + text + ")";
    }
    case ir::Value::Kind::ArrayRead: {
      std::string out = value.arrayName();
      for (const auto& index : value.indices()) {
        out += '[';
        out += indexToSource(index);
        out += ']';
      }
      return out;
    }
    case ir::Value::Kind::Binary: {
      const char* op = "+";
      switch (value.binOp()) {
        case ir::BinOp::Add:
          op = "+";
          break;
        case ir::BinOp::Sub:
          op = "-";
          break;
        case ir::BinOp::Mul:
          op = "*";
          break;
        case ir::BinOp::Div:
          op = "/";
          break;
      }
      // Fully parenthesized: precedence-safe under any reading.
      std::string out = "(";
      out += valueToSource(value.lhs());
      out += ' ';
      out += op;
      out += ' ';
      out += valueToSource(value.rhs());
      out += ')';
      return out;
    }
    case ir::Value::Kind::Unary: {
      switch (value.unOp()) {
        case ir::UnOp::Neg:
          return "(-" + valueToSource(value.operand()) + ")";
        case ir::UnOp::Sqrt:
          return "sqrt(" + valueToSource(value.operand()) + ")";
        case ir::UnOp::Abs:
          return "abs(" + valueToSource(value.operand()) + ")";
        case ir::UnOp::Exp:
          return "exp(" + valueToSource(value.operand()) + ")";
      }
      break;
    }
  }
  support::require(false, "printKernel: unreachable value kind");
  return {};
}

void printBody(std::ostringstream& out, const std::vector<ir::Stmt>& body,
               int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  for (const ir::Stmt& stmt : body) {
    switch (stmt.kind()) {
      case ir::Stmt::Kind::Assign:
        out << pad << stmt.targetName() << " = " << valueToSource(stmt.value())
            << ";\n";
        break;
      case ir::Stmt::Kind::Store: {
        out << pad << stmt.targetName();
        for (const auto& index : stmt.storeIndices())
          out << "[" << indexToSource(index) << "]";
        out << " = " << valueToSource(stmt.value()) << ";\n";
        break;
      }
      case ir::Stmt::Kind::SeqLoop:
        out << pad << "for " << stmt.loopVar() << " in "
            << indexToSource(stmt.lowerBound()) << ".."
            << indexToSource(stmt.upperBound()) << " {\n";
        printBody(out, stmt.loopBody(), indent + 2);
        out << pad << "}\n";
        break;
      case ir::Stmt::Kind::If: {
        const char* cmp = "<";
        switch (stmt.condition().op) {
          case ir::CmpOp::LT:
            cmp = "<";
            break;
          case ir::CmpOp::LE:
            cmp = "<=";
            break;
          case ir::CmpOp::GT:
            cmp = ">";
            break;
          case ir::CmpOp::GE:
            cmp = ">=";
            break;
          case ir::CmpOp::EQ:
            cmp = "==";
            break;
          case ir::CmpOp::NE:
            cmp = "!=";
            break;
        }
        out << pad << "if (" << valueToSource(stmt.condition().lhs) << " " << cmp
            << " " << valueToSource(stmt.condition().rhs) << ") {\n";
        printBody(out, stmt.thenBody(), indent + 2);
        if (!stmt.elseBody().empty()) {
          out << pad << "} else {\n";
          printBody(out, stmt.elseBody(), indent + 2);
        }
        out << pad << "}\n";
        break;
      }
    }
  }
}

}  // namespace

std::string printKernel(const ir::TargetRegion& region) {
  region.verify();
  std::ostringstream out;
  out << "kernel " << region.name << "(";
  for (std::size_t i = 0; i < region.params.size(); ++i) {
    if (i != 0) out << ", ";
    out << region.params[i];
  }
  out << ") {\n";
  for (const ir::ArrayDecl& decl : region.arrays) {
    out << "  array " << decl.name;
    for (const auto& extent : decl.extents)
      out << "[" << indexToSource(extent) << "]";
    out << " : " << ir::toString(decl.elementType) << " "
        << ir::toString(decl.transfer) << ";\n";
  }
  out << "  parallel for ";
  for (std::size_t d = 0; d < region.parallelDims.size(); ++d) {
    if (d != 0) out << ", ";
    out << region.parallelDims[d].var << " in 0.."
        << indexToSource(region.parallelDims[d].extent);
  }
  out << " {\n";
  printBody(out, region.body, 4);
  out << "  }\n}\n";
  return out.str();
}

}  // namespace osel::frontend
