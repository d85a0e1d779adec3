#include "minijs/interp.h"

#include <algorithm>
#include <cmath>

#include "base/strings.h"

namespace xqib::minijs {

// --------------------------------------------------------------- Value ---

bool Value::ToBoolean() const {
  switch (kind_) {
    case Kind::kUndefined:
    case Kind::kNull:
      return false;
    case Kind::kBool:
      return bool_;
    case Kind::kNumber:
      return num_ != 0 && !std::isnan(num_);
    case Kind::kString:
      return !str_.empty();
    case Kind::kObject:
      return true;
  }
  return false;
}

double Value::ToNumber() const {
  switch (kind_) {
    case Kind::kUndefined:
      return std::nan("");
    case Kind::kNull:
      return 0;
    case Kind::kBool:
      return bool_ ? 1 : 0;
    case Kind::kNumber:
      return num_;
    case Kind::kString: {
      std::string t(TrimWhitespace(str_));
      if (t.empty()) return 0;
      char* end = nullptr;
      double d = std::strtod(t.c_str(), &end);
      if (end != t.c_str() + t.size()) return std::nan("");
      return d;
    }
    case Kind::kObject:
      return std::nan("");
  }
  return std::nan("");
}

std::string Value::ToString() const {
  switch (kind_) {
    case Kind::kUndefined:
      return "undefined";
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kNumber:
      return DoubleToXPathString(num_);
    case Kind::kString:
      return str_;
    case Kind::kObject: {
      if (obj_->is_array) {
        std::string out;
        for (size_t i = 0; i < obj_->elements.size(); ++i) {
          if (i > 0) out += ",";
          out += obj_->elements[i].ToString();
        }
        return out;
      }
      if (obj_->node != nullptr) return "[object Node]";
      if (obj_->native || obj_->fn != nullptr) return "function";
      return "[object Object]";
    }
  }
  return "";
}

bool JsLooseEquals(const Value& a, const Value& b) {
  using K = Value::Kind;
  if (a.kind() == b.kind()) {
    switch (a.kind()) {
      case K::kUndefined:
      case K::kNull:
        return true;
      case K::kBool:
        return a.bool_value() == b.bool_value();
      case K::kNumber:
        return a.num_value() == b.num_value();
      case K::kString:
        return a.str_value() == b.str_value();
      case K::kObject:
        if (a.obj()->node != nullptr && b.obj()->node != nullptr) {
          return a.obj()->node == b.obj()->node;  // wrapper-transparent
        }
        return a.obj() == b.obj();
    }
  }
  // null == undefined.
  if ((a.kind() == K::kNull && b.kind() == K::kUndefined) ||
      (a.kind() == K::kUndefined && b.kind() == K::kNull)) {
    return true;
  }
  // Mixed: numeric coercion (string==number etc.).
  if (a.kind() == K::kObject || b.kind() == K::kObject) return false;
  return a.ToNumber() == b.ToNumber();
}

// --------------------------------------------------------- Interpreter ---

Interpreter::Interpreter() : globals_(std::make_shared<JsEnv>()) {}

Interpreter::~Interpreter() {
  for (const std::weak_ptr<JsEnv>& weak : captured_envs_) {
    if (EnvPtr env = weak.lock()) env->vars.clear();
  }
}

Value Interpreter::MakeFunction(const JsExpr* fn, const EnvPtr& env) {
  auto obj = std::make_shared<JsObject>();
  obj->fn = fn;
  obj->closure = env;
  if (!env->captured) {
    env->captured = true;
    if (captured_envs_.size() == captured_envs_.capacity()) {
      // Prune scopes already freed before growing: amortized O(1).
      captured_envs_.erase(
          std::remove_if(captured_envs_.begin(), captured_envs_.end(),
                         [](const std::weak_ptr<JsEnv>& w) {
                           return w.expired();
                         }),
          captured_envs_.end());
    }
    captured_envs_.push_back(env);
  }
  return Value::Object(std::move(obj));
}

Value Interpreter::MakeNative(NativeFn fn) {
  auto obj = std::make_shared<JsObject>();
  obj->native = std::move(fn);
  return Value::Object(std::move(obj));
}

const JsExpr* Interpreter::AdoptExpression(JsExprPtr expr) {
  adopted_exprs_.push_back(std::move(expr));
  return adopted_exprs_.back().get();
}

Status Interpreter::Run(std::unique_ptr<JsProgram> program) {
  JsProgram* p = program.get();
  programs_.push_back(std::move(program));
  Flow flow = Flow::kNormal;
  Value ret;
  // Hoist function declarations first (JS semantics).
  for (const JsStmtPtr& stmt : p->statements) {
    if (stmt->kind == JsStmtKind::kFunction) {
      globals_->vars[stmt->str] = MakeFunction(stmt->expr.get(), globals_);
    }
  }
  for (const JsStmtPtr& stmt : p->statements) {
    if (stmt->kind == JsStmtKind::kFunction) continue;
    XQ_RETURN_NOT_OK(Exec(*stmt, globals_, &flow, &ret));
    if (flow != Flow::kNormal) break;
  }
  return Status();
}

Result<Value> Interpreter::EvalExpression(
    const JsExpr& expr,
    const std::vector<std::pair<std::string, Value>>& bindings) {
  EnvPtr env = std::make_shared<JsEnv>();
  env->parent = globals_;
  for (const auto& [name, value] : bindings) env->vars[name] = value;
  return Eval(expr, env);
}

Value* Interpreter::FindVar(const std::string& name, EnvPtr env) {
  for (JsEnv* e = env.get(); e != nullptr; e = e->parent.get()) {
    auto it = e->vars.find(name);
    if (it != e->vars.end()) return &it->second;
  }
  return nullptr;
}

Status Interpreter::ExecBlock(const std::vector<JsStmtPtr>& body, EnvPtr env,
                              Flow* flow, Value* ret) {
  // Hoist function declarations within the block.
  for (const JsStmtPtr& stmt : body) {
    if (stmt->kind == JsStmtKind::kFunction) {
      env->vars[stmt->str] = MakeFunction(stmt->expr.get(), env);
    }
  }
  for (const JsStmtPtr& stmt : body) {
    if (stmt->kind == JsStmtKind::kFunction) continue;
    XQ_RETURN_NOT_OK(Exec(*stmt, env, flow, ret));
    if (*flow != Flow::kNormal) return Status();
  }
  return Status();
}

Status Interpreter::Exec(const JsStmt& s, EnvPtr env, Flow* flow,
                         Value* ret) {
  switch (s.kind) {
    case JsStmtKind::kExpr: {
      XQ_RETURN_NOT_OK(Eval(*s.expr, env).status());
      return Status();
    }
    case JsStmtKind::kVar: {
      Value init;
      if (s.expr != nullptr) {
        XQ_ASSIGN_OR_RETURN(init, Eval(*s.expr, env));
      }
      env->vars[s.str] = std::move(init);
      return Status();
    }
    case JsStmtKind::kFunction: {
      env->vars[s.str] = MakeFunction(s.expr.get(), env);
      return Status();
    }
    case JsStmtKind::kIf: {
      XQ_ASSIGN_OR_RETURN(Value cond, Eval(*s.expr, env));
      if (cond.ToBoolean()) {
        return ExecBlock(s.body, env, flow, ret);
      }
      return ExecBlock(s.else_body, env, flow, ret);
    }
    case JsStmtKind::kWhile: {
      while (true) {
        XQ_ASSIGN_OR_RETURN(Value cond, Eval(*s.expr, env));
        if (!cond.ToBoolean()) break;
        XQ_RETURN_NOT_OK(ExecBlock(s.body, env, flow, ret));
        if (*flow == Flow::kBreak) {
          *flow = Flow::kNormal;
          break;
        }
        if (*flow == Flow::kContinue) *flow = Flow::kNormal;
        if (*flow == Flow::kReturn) break;
      }
      return Status();
    }
    case JsStmtKind::kFor: {
      EnvPtr scope = std::make_shared<JsEnv>();
      scope->parent = env;
      if (s.init != nullptr) {
        XQ_RETURN_NOT_OK(Exec(*s.init, scope, flow, ret));
      }
      while (true) {
        if (s.expr != nullptr) {
          XQ_ASSIGN_OR_RETURN(Value cond, Eval(*s.expr, scope));
          if (!cond.ToBoolean()) break;
        }
        XQ_RETURN_NOT_OK(ExecBlock(s.body, scope, flow, ret));
        if (*flow == Flow::kBreak) {
          *flow = Flow::kNormal;
          break;
        }
        if (*flow == Flow::kContinue) *flow = Flow::kNormal;
        if (*flow == Flow::kReturn) break;
        if (s.expr2 != nullptr) {
          XQ_RETURN_NOT_OK(Eval(*s.expr2, scope).status());
        }
      }
      return Status();
    }
    case JsStmtKind::kReturn: {
      if (s.expr != nullptr) {
        XQ_ASSIGN_OR_RETURN(*ret, Eval(*s.expr, env));
      } else {
        *ret = Value::Undefined();
      }
      *flow = Flow::kReturn;
      return Status();
    }
    case JsStmtKind::kBreak:
      *flow = Flow::kBreak;
      return Status();
    case JsStmtKind::kContinue:
      *flow = Flow::kContinue;
      return Status();
    case JsStmtKind::kBlock: {
      EnvPtr scope = std::make_shared<JsEnv>();
      scope->parent = env;
      return ExecBlock(s.body, scope, flow, ret);
    }
  }
  return Status::NotImplemented("JS statement kind");
}

namespace {

// String prototype methods, bound to the receiver's value.
Result<Value> StringMethod(const std::string& s, const std::string& name,
                           bool* handled) {
  *handled = true;
  if (name == "length") {
    return Value::Number(static_cast<double>(s.size()));
  }
  if (name == "indexOf") {
    return Interpreter::MakeNative(
        [s](std::vector<Value>& args, Value, Interpreter&) -> Result<Value> {
          size_t pos = args.empty() ? std::string::npos
                                    : s.find(args[0].ToString());
          return Value::Number(pos == std::string::npos
                                   ? -1.0
                                   : static_cast<double>(pos));
        });
  }
  if (name == "charAt") {
    return Interpreter::MakeNative(
        [s](std::vector<Value>& args, Value, Interpreter&) -> Result<Value> {
          size_t i = args.empty() ? 0
                                  : static_cast<size_t>(args[0].ToNumber());
          if (i >= s.size()) return Value::String("");
          return Value::String(std::string(1, s[i]));
        });
  }
  if (name == "substring") {
    return Interpreter::MakeNative(
        [s](std::vector<Value>& args, Value, Interpreter&) -> Result<Value> {
          size_t from = args.empty()
                            ? 0
                            : static_cast<size_t>(
                                  std::max(0.0, args[0].ToNumber()));
          size_t to = args.size() > 1 ? static_cast<size_t>(std::max(
                                            0.0, args[1].ToNumber()))
                                      : s.size();
          if (from > s.size()) from = s.size();
          if (to > s.size()) to = s.size();
          if (from > to) std::swap(from, to);
          return Value::String(s.substr(from, to - from));
        });
  }
  if (name == "split") {
    return Interpreter::MakeNative(
        [s](std::vector<Value>& args, Value, Interpreter&) -> Result<Value> {
          auto arr = std::make_shared<JsObject>();
          arr->is_array = true;
          std::string sep = args.empty() ? "" : args[0].ToString();
          if (sep.empty()) {
            for (char c : s) {
              arr->elements.push_back(Value::String(std::string(1, c)));
            }
          } else {
            size_t start = 0;
            while (true) {
              size_t pos = s.find(sep, start);
              arr->elements.push_back(Value::String(
                  s.substr(start, pos == std::string::npos
                                      ? std::string::npos
                                      : pos - start)));
              if (pos == std::string::npos) break;
              start = pos + sep.size();
            }
          }
          return Value::Object(std::move(arr));
        });
  }
  if (name == "toUpperCase" || name == "toLowerCase") {
    bool upper = name == "toUpperCase";
    return Interpreter::MakeNative(
        [s, upper](std::vector<Value>&, Value, Interpreter&)
            -> Result<Value> {
          return Value::String(upper ? AsciiToUpper(s) : AsciiToLower(s));
        });
  }
  *handled = false;
  return Value::Undefined();
}

}  // namespace

Result<Value> Interpreter::GetMember(const Value& base,
                                     const std::string& name) {
  if (!base.is_object()) {
    if (base.kind() == Value::Kind::kString) {
      bool handled = false;
      Result<Value> r = StringMethod(base.str_value(), name, &handled);
      if (handled) return r;
      return Value::Undefined();
    }
    return Status::Error("JSRT0001", "cannot read property '" + name +
                                         "' of " + base.ToString());
  }
  JsObject& obj = *base.obj();
  if (obj.get_hook) {
    Value out;
    if (obj.get_hook(name, *this, &out)) return out;
  }
  if (obj.is_array && name == "length") {
    return Value::Number(static_cast<double>(obj.elements.size()));
  }
  auto it = obj.props.find(name);
  if (it != obj.props.end()) return it->second;
  return Value::Undefined();
}

Status Interpreter::SetMember(const Value& base, const std::string& name,
                              const Value& value) {
  if (!base.is_object()) {
    return Status::Error("JSRT0001", "cannot set property '" + name +
                                         "' of " + base.ToString());
  }
  JsObject& obj = *base.obj();
  if (obj.set_hook && obj.set_hook(name, value, *this)) return Status();
  obj.props[name] = value;
  return Status();
}

Result<Value> Interpreter::CallValue(const Value& fn_value,
                                     std::vector<Value> args,
                                     Value this_value) {
  if (!fn_value.is_object() ||
      (!fn_value.obj()->native && fn_value.obj()->fn == nullptr)) {
    return Status::Error("JSRT0002", "value is not callable");
  }
  JsObject& fn = *fn_value.obj();
  if (fn.native) {
    return fn.native(args, std::move(this_value), *this);
  }
  if (++call_depth_ > kMaxCallDepth) {
    --call_depth_;
    return Status::Error("JSRT0003", "JS recursion limit exceeded");
  }
  EnvPtr scope = std::make_shared<JsEnv>();
  scope->parent = fn.closure != nullptr ? fn.closure : globals_;
  for (size_t i = 0; i < fn.fn->params.size(); ++i) {
    scope->vars[fn.fn->params[i]] =
        i < args.size() ? std::move(args[i]) : Value::Undefined();
  }
  scope->vars["this"] = std::move(this_value);
  Flow flow = Flow::kNormal;
  Value ret;
  Status st = ExecBlock(fn.fn->body, scope, &flow, &ret);
  --call_depth_;
  XQ_RETURN_NOT_OK(st);
  return ret;
}

Result<Value> Interpreter::EvalAssignTarget(const JsExpr& target, EnvPtr env,
                                            const Value& value) {
  switch (target.kind) {
    case JsExprKind::kIdentifier: {
      Value* slot = FindVar(target.str, env);
      if (slot != nullptr) {
        *slot = value;
      } else {
        globals_->vars[target.str] = value;  // implicit global, JS-style
      }
      return value;
    }
    case JsExprKind::kMember: {
      XQ_ASSIGN_OR_RETURN(Value base, Eval(*target.kids[0], env));
      XQ_RETURN_NOT_OK(SetMember(base, target.str, value));
      return value;
    }
    case JsExprKind::kIndex: {
      XQ_ASSIGN_OR_RETURN(Value base, Eval(*target.kids[0], env));
      XQ_ASSIGN_OR_RETURN(Value idx, Eval(*target.kids[1], env));
      if (base.is_object() && base.obj()->is_array) {
        size_t i = static_cast<size_t>(idx.ToNumber());
        if (base.obj()->elements.size() <= i) {
          base.obj()->elements.resize(i + 1);
        }
        base.obj()->elements[i] = value;
        return value;
      }
      XQ_RETURN_NOT_OK(SetMember(base, idx.ToString(), value));
      return value;
    }
    default:
      return Status::SyntaxError("JS: invalid assignment target");
  }
}

Result<Value> Interpreter::Eval(const JsExpr& e, EnvPtr env) {
  switch (e.kind) {
    case JsExprKind::kNumber:
      return Value::Number(e.num);
    case JsExprKind::kString:
      return Value::String(e.str);
    case JsExprKind::kBool:
      return Value::Boolean(e.flag);
    case JsExprKind::kNull:
      return Value::Null();
    case JsExprKind::kUndefined:
      return Value::Undefined();
    case JsExprKind::kThis:
    case JsExprKind::kIdentifier: {
      const std::string& name =
          e.kind == JsExprKind::kThis ? std::string("this") : e.str;
      Value* slot = FindVar(name, env);
      if (slot != nullptr) return *slot;
      return Status::Error("JSRT0004", "JS: '" + name + "' is not defined");
    }
    case JsExprKind::kMember: {
      XQ_ASSIGN_OR_RETURN(Value base, Eval(*e.kids[0], env));
      return GetMember(base, e.str);
    }
    case JsExprKind::kIndex: {
      XQ_ASSIGN_OR_RETURN(Value base, Eval(*e.kids[0], env));
      XQ_ASSIGN_OR_RETURN(Value idx, Eval(*e.kids[1], env));
      if (base.is_object() && base.obj()->is_array) {
        size_t i = static_cast<size_t>(idx.ToNumber());
        if (i < base.obj()->elements.size()) return base.obj()->elements[i];
        return Value::Undefined();
      }
      return GetMember(base, idx.ToString());
    }
    case JsExprKind::kCall: {
      const JsExpr& callee = *e.kids[0];
      Value this_value;
      Value fn;
      if (callee.kind == JsExprKind::kMember) {
        XQ_ASSIGN_OR_RETURN(this_value, Eval(*callee.kids[0], env));
        XQ_ASSIGN_OR_RETURN(fn, GetMember(this_value, callee.str));
      } else {
        XQ_ASSIGN_OR_RETURN(fn, Eval(callee, env));
      }
      std::vector<Value> args;
      for (size_t i = 1; i < e.kids.size(); ++i) {
        XQ_ASSIGN_OR_RETURN(Value arg, Eval(*e.kids[i], env));
        args.push_back(std::move(arg));
      }
      return CallValue(fn, std::move(args), std::move(this_value));
    }
    case JsExprKind::kNew: {
      // Minimal `new`: a fresh plain object (enough for `new Object()`).
      return Value::Object(std::make_shared<JsObject>());
    }
    case JsExprKind::kAssign: {
      XQ_ASSIGN_OR_RETURN(Value rhs, Eval(*e.kids[1], env));
      if (e.str != "=") {
        XQ_ASSIGN_OR_RETURN(Value lhs, Eval(*e.kids[0], env));
        char op = e.str[0];
        if (op == '+' && (lhs.kind() == Value::Kind::kString ||
                          rhs.kind() == Value::Kind::kString)) {
          rhs = Value::String(lhs.ToString() + rhs.ToString());
        } else {
          double a = lhs.ToNumber(), b = rhs.ToNumber();
          double r = op == '+' ? a + b
                     : op == '-' ? a - b
                     : op == '*' ? a * b
                                 : a / b;
          rhs = Value::Number(r);
        }
      }
      return EvalAssignTarget(*e.kids[0], env, rhs);
    }
    case JsExprKind::kBinary: {
      XQ_ASSIGN_OR_RETURN(Value a, Eval(*e.kids[0], env));
      XQ_ASSIGN_OR_RETURN(Value b, Eval(*e.kids[1], env));
      const std::string& op = e.str;
      if (op == "+") {
        if (a.kind() == Value::Kind::kString ||
            b.kind() == Value::Kind::kString) {
          return Value::String(a.ToString() + b.ToString());
        }
        return Value::Number(a.ToNumber() + b.ToNumber());
      }
      if (op == "-") return Value::Number(a.ToNumber() - b.ToNumber());
      if (op == "*") return Value::Number(a.ToNumber() * b.ToNumber());
      if (op == "/") return Value::Number(a.ToNumber() / b.ToNumber());
      if (op == "%") {
        return Value::Number(std::fmod(a.ToNumber(), b.ToNumber()));
      }
      if (op == "==") return Value::Boolean(JsLooseEquals(a, b));
      if (op == "!=") return Value::Boolean(!JsLooseEquals(a, b));
      if (op == "===") {
        return Value::Boolean(a.kind() == b.kind() && JsLooseEquals(a, b));
      }
      if (op == "!==") {
        return Value::Boolean(!(a.kind() == b.kind() && JsLooseEquals(a, b)));
      }
      bool string_cmp = a.kind() == Value::Kind::kString &&
                        b.kind() == Value::Kind::kString;
      double cmp = string_cmp
                       ? static_cast<double>(
                             a.str_value().compare(b.str_value()))
                       : a.ToNumber() - b.ToNumber();
      if (op == "<") return Value::Boolean(cmp < 0);
      if (op == ">") return Value::Boolean(cmp > 0);
      if (op == "<=") return Value::Boolean(cmp <= 0);
      if (op == ">=") return Value::Boolean(cmp >= 0);
      return Status::NotImplemented("JS operator " + op);
    }
    case JsExprKind::kLogical: {
      XQ_ASSIGN_OR_RETURN(Value a, Eval(*e.kids[0], env));
      if (e.str == "&&") {
        if (!a.ToBoolean()) return a;
        return Eval(*e.kids[1], env);
      }
      if (a.ToBoolean()) return a;
      return Eval(*e.kids[1], env);
    }
    case JsExprKind::kUnary: {
      XQ_ASSIGN_OR_RETURN(Value v, Eval(*e.kids[0], env));
      if (e.str == "!") return Value::Boolean(!v.ToBoolean());
      if (e.str == "-") return Value::Number(-v.ToNumber());
      if (e.str == "+") return Value::Number(v.ToNumber());
      if (e.str == "typeof") {
        switch (v.kind()) {
          case Value::Kind::kUndefined: return Value::String("undefined");
          case Value::Kind::kNull: return Value::String("object");
          case Value::Kind::kBool: return Value::String("boolean");
          case Value::Kind::kNumber: return Value::String("number");
          case Value::Kind::kString: return Value::String("string");
          case Value::Kind::kObject:
            return Value::String(
                v.obj()->native || v.obj()->fn ? "function" : "object");
        }
      }
      return Status::NotImplemented("JS unary " + e.str);
    }
    case JsExprKind::kUpdate: {
      XQ_ASSIGN_OR_RETURN(Value old, Eval(*e.kids[0], env));
      double delta = e.str == "++" ? 1 : -1;
      Value updated = Value::Number(old.ToNumber() + delta);
      XQ_RETURN_NOT_OK(
          EvalAssignTarget(*e.kids[0], env, updated).status());
      return e.flag ? updated : Value::Number(old.ToNumber());
    }
    case JsExprKind::kConditional: {
      XQ_ASSIGN_OR_RETURN(Value cond, Eval(*e.kids[0], env));
      return Eval(cond.ToBoolean() ? *e.kids[1] : *e.kids[2], env);
    }
    case JsExprKind::kFunction:
      return MakeFunction(&e, env);
    case JsExprKind::kObjectLit: {
      auto obj = std::make_shared<JsObject>();
      for (const auto& [name, init] : e.props) {
        XQ_ASSIGN_OR_RETURN(Value v, Eval(*init, env));
        obj->props[name] = std::move(v);
      }
      return Value::Object(std::move(obj));
    }
    case JsExprKind::kArrayLit: {
      auto obj = std::make_shared<JsObject>();
      obj->is_array = true;
      for (const JsExprPtr& kid : e.kids) {
        XQ_ASSIGN_OR_RETURN(Value v, Eval(*kid, env));
        obj->elements.push_back(std::move(v));
      }
      return Value::Object(std::move(obj));
    }
  }
  return Status::NotImplemented("JS expression kind");
}

}  // namespace xqib::minijs
