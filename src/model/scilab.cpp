#include "model/scilab.h"

#include <cctype>
#include <limits>
#include <optional>
#include <set>

#include "ir/builder.h"
#include "ir/rewrite.h"
#include "support/diagnostics.h"
#include "support/strings.h"

namespace argo::model::scilab {

using support::ToolchainError;

namespace {

// ------------------------------------------------------------------- Lexer

enum class Tok : std::uint8_t {
  Ident, Number, Assign, Plus, Minus, Star, Slash, Caret,
  Eq, Ne, Lt, Le, Gt, Ge, And, Or, Not,
  LParen, RParen, Comma, Colon, Separator,  // ';' or newline
  KwFor, KwIf, KwElse, KwEnd, KwThen, KwDo, KwLocal,
  Eof,
};

struct Token {
  Tok kind = Tok::Eof;
  std::string text;
  /// A Number token holds `integer` unless it has a '.' or an exponent;
  /// then it is a float literal and holds `number`.
  std::int64_t integer = 0;
  double number = 0.0;
  bool isFloatLiteral = false;
  int line = 1;
};

class Lexer {
 public:
  explicit Lexer(const std::string& source) : src_(source) { advance(); }

  [[nodiscard]] const Token& peek() const noexcept { return current_; }

  Token next() {
    Token t = current_;
    advance();
    return t;
  }

 private:
  void advance() {
    skipSpaceAndComments();
    current_ = Token{};
    current_.line = line_;
    if (pos_ >= src_.size()) {
      current_.kind = Tok::Eof;
      return;
    }
    const char c = src_[pos_];
    if (c == '\n') {
      ++pos_;
      ++line_;
      current_.kind = Tok::Separator;
      return;
    }
    if (c == ';') {
      ++pos_;
      current_.kind = Tok::Separator;
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      lexIdent();
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '.') {
      lexNumber();
      return;
    }
    lexOperator();
  }

  void skipSpaceAndComments() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == ' ' || c == '\t' || c == '\r') {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '/') {
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  void lexIdent() {
    const std::size_t start = pos_;
    while (pos_ < src_.size() &&
           (std::isalnum(static_cast<unsigned char>(src_[pos_])) != 0 ||
            src_[pos_] == '_')) {
      ++pos_;
    }
    current_.text = src_.substr(start, pos_ - start);
    if (current_.text == "for") current_.kind = Tok::KwFor;
    else if (current_.text == "if") current_.kind = Tok::KwIf;
    else if (current_.text == "else") current_.kind = Tok::KwElse;
    else if (current_.text == "end") current_.kind = Tok::KwEnd;
    else if (current_.text == "then") current_.kind = Tok::KwThen;
    else if (current_.text == "do") current_.kind = Tok::KwDo;
    else if (current_.text == "local") current_.kind = Tok::KwLocal;
    else current_.kind = Tok::Ident;
  }

  void lexNumber() {
    const std::size_t start = pos_;
    bool isFloat = false;
    while (pos_ < src_.size() &&
           std::isdigit(static_cast<unsigned char>(src_[pos_])) != 0) {
      ++pos_;
    }
    if (pos_ < src_.size() && src_[pos_] == '.') {
      isFloat = true;
      ++pos_;
      while (pos_ < src_.size() &&
             std::isdigit(static_cast<unsigned char>(src_[pos_])) != 0) {
        ++pos_;
      }
    }
    if (pos_ < src_.size() && (src_[pos_] == 'e' || src_[pos_] == 'E')) {
      isFloat = true;
      ++pos_;
      if (pos_ < src_.size() && (src_[pos_] == '+' || src_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < src_.size() &&
             std::isdigit(static_cast<unsigned char>(src_[pos_])) != 0) {
        ++pos_;
      }
    }
    current_.kind = Tok::Number;
    current_.text = src_.substr(start, pos_ - start);
    current_.isFloatLiteral = isFloat;
    if (isFloat) {
      const std::optional<double> value =
          support::parseNumber<double>(current_.text);
      if (!value) fail("malformed or out-of-range number '" + current_.text +
                       "'");
      current_.number = *value;
    } else {
      const std::optional<std::int64_t> value =
          support::parseNumber<std::int64_t>(current_.text);
      if (!value) fail("integer '" + current_.text + "' is out of range");
      current_.integer = *value;
    }
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw ToolchainError("scilab line " + std::to_string(line_) + ": " +
                         message);
  }

  void lexOperator() {
    auto two = [&](char a, char b) {
      return src_[pos_] == a && pos_ + 1 < src_.size() && src_[pos_ + 1] == b;
    };
    if (two('=', '=')) { current_.kind = Tok::Eq; pos_ += 2; return; }
    if (two('~', '=')) { current_.kind = Tok::Ne; pos_ += 2; return; }
    if (two('<', '=')) { current_.kind = Tok::Le; pos_ += 2; return; }
    if (two('>', '=')) { current_.kind = Tok::Ge; pos_ += 2; return; }
    switch (src_[pos_]) {
      case '=': current_.kind = Tok::Assign; break;
      case '+': current_.kind = Tok::Plus; break;
      case '-': current_.kind = Tok::Minus; break;
      case '*': current_.kind = Tok::Star; break;
      case '/': current_.kind = Tok::Slash; break;
      case '^': current_.kind = Tok::Caret; break;
      case '<': current_.kind = Tok::Lt; break;
      case '>': current_.kind = Tok::Gt; break;
      case '&': current_.kind = Tok::And; break;
      case '|': current_.kind = Tok::Or; break;
      case '~': current_.kind = Tok::Not; break;
      case '(': current_.kind = Tok::LParen; break;
      case ')': current_.kind = Tok::RParen; break;
      case ',': current_.kind = Tok::Comma; break;
      case ':': current_.kind = Tok::Colon; break;
      default:
        fail("unexpected character '" + std::string(1, src_[pos_]) + "'");
    }
    ++pos_;
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  Token current_;
};

// ------------------------------------------------------------------ Parser

/// One-argument intrinsics mapping to IR unary operators.
const std::map<std::string, ir::UnOpKind>& unaryIntrinsics() {
  static const std::map<std::string, ir::UnOpKind> table = {
      {"abs", ir::UnOpKind::Abs},     {"sqrt", ir::UnOpKind::Sqrt},
      {"exp", ir::UnOpKind::Exp},     {"log", ir::UnOpKind::Log},
      {"sin", ir::UnOpKind::Sin},     {"cos", ir::UnOpKind::Cos},
      {"tan", ir::UnOpKind::Tan},     {"atan", ir::UnOpKind::Atan},
      {"floor", ir::UnOpKind::Floor}, {"int", ir::UnOpKind::ToInt},
      {"float", ir::UnOpKind::ToFloat}};
  return table;
}

bool isMultiArgIntrinsic(const std::string& name) {
  static const std::set<std::string> table = {"atan2", "pow", "hypot", "fmod"};
  return table.contains(name);
}

class Parser {
 public:
  Parser(const std::string& source, const std::map<std::string, ir::Type>& ports)
      : lexer_(source), ports_(ports) {}

  ParsedScript run() {
    ParsedScript out;
    out.body = parseStmts(/*terminators=*/{Tok::Eof});
    expect(Tok::Eof);
    for (const auto& [name, decl] : locals_) out.locals.push_back(decl);
    return out;
  }

 private:
  [[noreturn]] void fail(const std::string& message) {
    throw ToolchainError("scilab line " + std::to_string(lexer_.peek().line) +
                         ": " + message);
  }

  Token expect(Tok kind) {
    if (lexer_.peek().kind != kind) {
      fail("unexpected token '" + lexer_.peek().text + "'");
    }
    return lexer_.next();
  }

  bool accept(Tok kind) {
    if (lexer_.peek().kind == kind) {
      lexer_.next();
      return true;
    }
    return false;
  }

  void skipSeparators() {
    while (accept(Tok::Separator)) {
    }
  }

  std::unique_ptr<ir::Block> parseStmts(const std::set<Tok>& terminators) {
    auto block = ir::block();
    skipSeparators();
    while (!terminators.contains(lexer_.peek().kind)) {
      block->append(parseStmt());
      skipSeparators();
    }
    return block;
  }

  ir::StmtPtr parseStmt() {
    switch (lexer_.peek().kind) {
      case Tok::KwFor: return parseFor();
      case Tok::KwIf: return parseIf();
      case Tok::KwLocal: return parseLocal();
      case Tok::Ident: return parseAssign();
      default:
        fail("expected statement, got '" + lexer_.peek().text + "'");
    }
  }

  /// `local name`, `local name(d1)`, `local name(d1,d2)` — declares a
  /// zero-initialized f64 local. Emits no code.
  ir::StmtPtr parseLocal() {
    expect(Tok::KwLocal);
    const Token name = expect(Tok::Ident);
    std::vector<int> dims;
    if (accept(Tok::LParen)) {
      constexpr std::int64_t kMaxElements = std::numeric_limits<int>::max();
      std::int64_t elements = 1;
      while (true) {
        const Token d = expect(Tok::Number);
        if (d.isFloatLiteral || d.integer < 1) {
          fail("array extent must be a positive integer, got '" + d.text +
               "'");
        }
        if (d.integer > kMaxElements / elements) {
          fail("local '" + name.text + "' has more than " +
               std::to_string(kMaxElements) + " elements");
        }
        elements *= d.integer;
        dims.push_back(static_cast<int>(d.integer));
        if (!accept(Tok::Comma)) break;
      }
      expect(Tok::RParen);
    }
    declareLocal(name.text, dims.empty()
                                ? ir::Type::float64()
                                : ir::Type::array(ir::ScalarKind::Float64,
                                                  std::move(dims)));
    // `local` is purely declarative; return an empty block.
    return ir::block();
  }

  ir::StmtPtr parseAssign() {
    const Token name = expect(Tok::Ident);
    std::vector<ir::ExprPtr> indices;
    if (accept(Tok::LParen)) {
      while (true) {
        indices.push_back(adjustIndex(parseExpr()));
        if (!accept(Tok::Comma)) break;
      }
      expect(Tok::RParen);
    }
    expect(Tok::Assign);
    ir::ExprPtr rhs = parseExpr();
    if (!isKnown(name.text)) {
      if (!indices.empty()) {
        fail("indexed assignment to undeclared variable '" + name.text +
             "' (use 'local " + name.text + "(dims)')");
      }
      declareLocal(name.text, ir::Type::float64());
    }
    return ir::assign(ir::ref(name.text, std::move(indices)), std::move(rhs));
  }

  ir::StmtPtr parseFor() {
    expect(Tok::KwFor);
    const Token var = expect(Tok::Ident);
    expect(Tok::Assign);
    const std::int64_t lo = parseConstInt("loop lower bound");
    expect(Tok::Colon);
    const std::int64_t hi = parseConstInt("loop upper bound");
    // Scilab ranges are inclusive; IR loops are half-open.
    const std::optional<std::int64_t> end =
        ir::checkedIntOp(ir::BinOpKind::Add, hi, 1);
    if (!end) fail("loop upper bound must be below " + std::to_string(hi));
    // The trip count, end - lo, must be an int64 (ir::validate).
    if (*end > lo && !ir::checkedIntOp(ir::BinOpKind::Sub, *end, lo)) {
      fail("loop runs more than " +
           std::to_string(std::numeric_limits<std::int64_t>::max()) +
           " iterations");
    }
    accept(Tok::KwDo);
    loopVars_.insert(var.text);
    auto body = parseStmts({Tok::KwEnd});
    loopVars_.erase(var.text);
    expect(Tok::KwEnd);
    return ir::forLoop(var.text, lo, *end, std::move(body));
  }

  ir::StmtPtr parseIf() {
    expect(Tok::KwIf);
    ir::ExprPtr cond = parseExpr();
    accept(Tok::KwThen);
    auto thenBody = parseStmts({Tok::KwElse, Tok::KwEnd});
    auto elseBody = ir::block();
    if (accept(Tok::KwElse)) {
      elseBody = parseStmts({Tok::KwEnd});
    }
    expect(Tok::KwEnd);
    return ir::ifStmt(std::move(cond), std::move(thenBody),
                      std::move(elseBody));
  }

  /// Constant integer expression (loop bounds): integer literals combined
  /// by the arithmetic operators and unary minus, in checked int64
  /// arithmetic (ir::checkedIntOp).
  std::int64_t parseConstInt(const std::string& what) {
    ir::ExprPtr expr = parseExpr();
    const std::optional<std::int64_t> value = constEval(*expr, what);
    if (!value.has_value()) fail(what + " must be a compile-time constant");
    return *value;
  }

  /// No value when `expr` is not constant; fails when its arithmetic
  /// divides by zero or overflows.
  std::optional<std::int64_t> constEval(const ir::Expr& expr,
                                        const std::string& what) {
    if (const auto* i = ir::dynCast<ir::IntLit>(expr)) return i->value();
    std::optional<std::int64_t> value;
    if (const auto* b = ir::dynCast<ir::BinOp>(expr)) {
      if (ir::isComparison(b->op()) || ir::isLogical(b->op())) {
        return std::nullopt;
      }
      const auto lhs = constEval(b->lhs(), what);
      const auto rhs = constEval(b->rhs(), what);
      if (!lhs || !rhs) return std::nullopt;
      value = ir::checkedIntOp(b->op(), *lhs, *rhs);
    } else if (const auto* u = ir::dynCast<ir::UnOp>(expr);
               u != nullptr && u->op() == ir::UnOpKind::Neg) {
      const auto operand = constEval(u->operand(), what);
      if (!operand) return std::nullopt;
      value = ir::checkedIntOp(u->op(), *operand);
    } else {
      return std::nullopt;
    }
    if (!value) fail(what + " divides by zero or overflows 64-bit integers");
    return value;
  }

  // Precedence climbing: | < & < comparisons < +- < */ < ^ < unary.
  ir::ExprPtr parseExpr() { return parseOr(); }

  ir::ExprPtr parseOr() {
    ir::ExprPtr lhs = parseAnd();
    while (accept(Tok::Or)) {
      lhs = ir::bin(ir::BinOpKind::Or, std::move(lhs), parseAnd());
    }
    return lhs;
  }

  ir::ExprPtr parseAnd() {
    ir::ExprPtr lhs = parseComparison();
    while (accept(Tok::And)) {
      lhs = ir::bin(ir::BinOpKind::And, std::move(lhs), parseComparison());
    }
    return lhs;
  }

  ir::ExprPtr parseComparison() {
    ir::ExprPtr lhs = parseAdditive();
    while (true) {
      ir::BinOpKind op;
      switch (lexer_.peek().kind) {
        case Tok::Eq: op = ir::BinOpKind::Eq; break;
        case Tok::Ne: op = ir::BinOpKind::Ne; break;
        case Tok::Lt: op = ir::BinOpKind::Lt; break;
        case Tok::Le: op = ir::BinOpKind::Le; break;
        case Tok::Gt: op = ir::BinOpKind::Gt; break;
        case Tok::Ge: op = ir::BinOpKind::Ge; break;
        default: return lhs;
      }
      lexer_.next();
      lhs = ir::bin(op, std::move(lhs), parseAdditive());
    }
  }

  ir::ExprPtr parseAdditive() {
    ir::ExprPtr lhs = parseMultiplicative();
    while (true) {
      if (accept(Tok::Plus)) {
        lhs = ir::add(std::move(lhs), parseMultiplicative());
      } else if (accept(Tok::Minus)) {
        lhs = ir::sub(std::move(lhs), parseMultiplicative());
      } else {
        return lhs;
      }
    }
  }

  ir::ExprPtr parseMultiplicative() {
    ir::ExprPtr lhs = parseUnary();
    while (true) {
      if (accept(Tok::Star)) {
        lhs = ir::mul(std::move(lhs), parseUnary());
      } else if (accept(Tok::Slash)) {
        lhs = ir::div(std::move(lhs), parseUnary());
      } else {
        return lhs;
      }
    }
  }

  // Scilab precedence: '^' binds tighter than unary minus (-x^2 == -(x^2)),
  // and is right-associative with a possibly-signed exponent (2^-3).
  ir::ExprPtr parseUnary() {
    if (accept(Tok::Minus)) return ir::neg(parseUnary());
    if (accept(Tok::Not)) return ir::un(ir::UnOpKind::Not, parseUnary());
    return parsePower();
  }

  ir::ExprPtr parsePower() {
    ir::ExprPtr base = parsePrimary();
    if (accept(Tok::Caret)) {
      ir::ExprPtr exponent = parseUnary();  // right-associative, signed
      // x^2 is common enough to strength-reduce immediately.
      if (const auto* i = ir::dynCast<ir::IntLit>(*exponent);
          i != nullptr && i->value() == 2) {
        ir::ExprPtr copy = base->clone();
        return ir::mul(std::move(base), std::move(copy));
      }
      return ir::call("pow", ir::exprVec(std::move(base), std::move(exponent)));
    }
    return base;
  }

  ir::ExprPtr parsePrimary() {
    const Token& tok = lexer_.peek();
    if (tok.kind == Tok::Number) {
      const Token t = lexer_.next();
      if (t.isFloatLiteral) return ir::flt(t.number);
      return ir::lit(t.integer);
    }
    if (tok.kind == Tok::LParen) {
      lexer_.next();
      ir::ExprPtr inner = parseExpr();
      expect(Tok::RParen);
      return inner;
    }
    if (tok.kind == Tok::Ident) {
      const Token name = lexer_.next();
      if (name.text == "pi") return ir::flt(3.14159265358979323846);
      if (lexer_.peek().kind != Tok::LParen) {
        if (!isKnown(name.text) && !loopVars_.contains(name.text)) {
          fail("unknown variable '" + name.text + "'");
        }
        return ir::var(name.text);
      }
      // name(...) — intrinsic call or array index.
      lexer_.next();  // consume '('
      std::vector<ir::ExprPtr> args;
      while (true) {
        args.push_back(parseExpr());
        if (!accept(Tok::Comma)) break;
      }
      expect(Tok::RParen);
      if (const auto it = unaryIntrinsics().find(name.text);
          it != unaryIntrinsics().end()) {
        if (args.size() != 1) fail("'" + name.text + "' takes one argument");
        return ir::un(it->second, std::move(args[0]));
      }
      if (name.text == "min" || name.text == "max") {
        if (args.size() != 2) fail("'" + name.text + "' takes two arguments");
        return ir::bin(name.text == "min" ? ir::BinOpKind::Min
                                          : ir::BinOpKind::Max,
                       std::move(args[0]), std::move(args[1]));
      }
      if (name.text == "modulo") {
        if (args.size() != 2) fail("'modulo' takes two arguments");
        return ir::bin(ir::BinOpKind::Mod, std::move(args[0]),
                       std::move(args[1]));
      }
      if (isMultiArgIntrinsic(name.text)) {
        if (args.size() != 2) fail("'" + name.text + "' takes two arguments");
        return ir::call(name.text, std::move(args));
      }
      // Array indexing: Scilab is 1-based.
      if (!isKnown(name.text)) {
        fail("unknown array '" + name.text + "'");
      }
      for (ir::ExprPtr& idx : args) idx = adjustIndex(std::move(idx));
      return ir::ref(name.text, std::move(args));
    }
    fail("expected expression, got '" + tok.text + "'");
  }

  /// Converts a 1-based Scilab index expression to 0-based IR form,
  /// folding the common literal case.
  static ir::ExprPtr adjustIndex(ir::ExprPtr index) {
    if (const auto* i = ir::dynCast<ir::IntLit>(*index)) {
      return ir::lit(i->value() - 1);
    }
    return ir::sub(std::move(index), ir::lit(1));
  }

  bool isKnown(const std::string& name) const {
    return ports_.contains(name) || locals_.contains(name) ||
           loopVars_.contains(name);
  }

  void declareLocal(const std::string& name, ir::Type type) {
    if (ports_.contains(name)) fail("'" + name + "' is a port, not a local");
    if (locals_.contains(name)) fail("duplicate local '" + name + "'");
    locals_.emplace(name, ir::VarDecl{name, std::move(type), ir::VarRole::Temp,
                                      ir::Storage::Shared});
  }

  Lexer lexer_;
  const std::map<std::string, ir::Type>& ports_;
  std::map<std::string, ir::VarDecl> locals_;
  std::set<std::string> loopVars_;
};

}  // namespace

ParsedScript parseScript(const std::string& source,
                         const std::map<std::string, ir::Type>& ports) {
  Parser parser(source, ports);
  return parser.run();
}

}  // namespace argo::model::scilab

namespace argo::model {

using support::ToolchainError;

namespace {

std::map<std::string, ir::Type> makePortMap(
    const std::vector<scilab::PortSpec>& inputs,
    const std::vector<scilab::PortSpec>& outputs) {
  std::map<std::string, ir::Type> ports;
  for (const auto& p : inputs) {
    if (!ports.emplace(p.name, p.type).second) {
      throw ToolchainError("duplicate port name '" + p.name + "'");
    }
  }
  for (const auto& p : outputs) {
    if (!ports.emplace(p.name, p.type).second) {
      throw ToolchainError("duplicate port name '" + p.name + "'");
    }
  }
  return ports;
}

/// Collects every loop variable used in a statement tree.
void collectLoopVars(const ir::Stmt& stmt, std::set<std::string>& vars) {
  switch (stmt.kind()) {
    case ir::StmtKind::For: {
      const auto& loop = ir::cast<ir::For>(stmt);
      vars.insert(loop.var());
      for (const ir::StmtPtr& s : loop.body().stmts()) {
        collectLoopVars(*s, vars);
      }
      break;
    }
    case ir::StmtKind::If: {
      const auto& branch = ir::cast<ir::If>(stmt);
      for (const ir::StmtPtr& s : branch.thenBody().stmts()) {
        collectLoopVars(*s, vars);
      }
      for (const ir::StmtPtr& s : branch.elseBody().stmts()) {
        collectLoopVars(*s, vars);
      }
      break;
    }
    case ir::StmtKind::Block:
      for (const ir::StmtPtr& s : ir::cast<ir::Block>(stmt).stmts()) {
        collectLoopVars(*s, vars);
      }
      break;
    case ir::StmtKind::Assign:
      break;
  }
}

}  // namespace

ScilabBlock::ScilabBlock(std::string name, std::string source,
                         std::vector<scilab::PortSpec> inputs,
                         std::vector<scilab::PortSpec> outputs)
    : Block(std::move(name)),
      inputs_(std::move(inputs)),
      outputs_(std::move(outputs)),
      script_(scilab::parseScript(source, makePortMap(inputs_, outputs_))) {}

std::vector<ir::Type> ScilabBlock::inferTypes(
    const std::vector<ir::Type>& inputs) const {
  if (inputs.size() != inputs_.size()) {
    throw ToolchainError("block '" + name() + "': expected " +
                         std::to_string(inputs_.size()) + " inputs");
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i] != inputs_[i].type) {
      throw ToolchainError("block '" + name() + "': input '" +
                           inputs_[i].name + "' expects " +
                           inputs_[i].type.str() + ", got " + inputs[i].str());
    }
  }
  std::vector<ir::Type> out;
  out.reserve(outputs_.size());
  for (const auto& p : outputs_) out.push_back(p.type);
  return out;
}

void ScilabBlock::emit(EmitContext& ctx) const {
  // Clone the parsed script and rename ports -> wire variables,
  // locals/loop variables -> fresh unique names.
  std::map<std::string, std::string> renames;
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    renames[inputs_[i].name] = ctx.inputs.at(i);
  }
  for (std::size_t i = 0; i < outputs_.size(); ++i) {
    renames[outputs_[i].name] = ctx.outputs.at(i);
  }
  for (const ir::VarDecl& local : script_.locals) {
    const std::string fresh = ctx.uniqueName(name() + "_" + local.name);
    ctx.fn.declare(fresh, local.type, local.role, local.storage);
    renames[local.name] = fresh;
  }
  std::set<std::string> loopVars;
  for (const ir::StmtPtr& s : script_.body->stmts()) {
    collectLoopVars(*s, loopVars);
  }
  for (const std::string& lv : loopVars) {
    renames[lv] = ctx.uniqueName(lv);
  }
  auto body = script_.body->cloneBlock();
  for (const ir::StmtPtr& s : body->stmts()) ir::renameVars(*s, renames);
  for (ir::StmtPtr& s : body->stmts()) ctx.body.append(std::move(s));
}

}  // namespace argo::model
