// MiniJS values and interpreter. Host objects (document, window, DOM
// nodes) plug in through property hooks and native functions.

#ifndef XQIB_MINIJS_INTERP_H_
#define XQIB_MINIJS_INTERP_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "minijs/ast.h"
#include "xml/dom.h"

namespace xqib::minijs {

class Interpreter;
struct JsObject;
using ObjPtr = std::shared_ptr<JsObject>;

class Value {
 public:
  enum class Kind { kUndefined, kNull, kBool, kNumber, kString, kObject };

  Value() : kind_(Kind::kUndefined) {}
  static Value Undefined() { return Value(); }
  static Value Null() {
    Value v;
    v.kind_ = Kind::kNull;
    return v;
  }
  static Value Boolean(bool b) {
    Value v;
    v.kind_ = Kind::kBool;
    v.bool_ = b;
    return v;
  }
  static Value Number(double d) {
    Value v;
    v.kind_ = Kind::kNumber;
    v.num_ = d;
    return v;
  }
  static Value String(std::string s) {
    Value v;
    v.kind_ = Kind::kString;
    v.str_ = std::move(s);
    return v;
  }
  static Value Object(ObjPtr obj) {
    Value v;
    v.kind_ = Kind::kObject;
    v.obj_ = std::move(obj);
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_undefined() const { return kind_ == Kind::kUndefined; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool bool_value() const { return bool_; }
  double num_value() const { return num_; }
  const std::string& str_value() const { return str_; }
  const ObjPtr& obj() const { return obj_; }

  bool ToBoolean() const;
  double ToNumber() const;
  std::string ToString() const;

 private:
  Kind kind_;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  ObjPtr obj_;
};

using NativeFn = std::function<Result<Value>(std::vector<Value>& args,
                                             Value this_value,
                                             Interpreter& interp)>;

// Lexical environment (scope chain) for closures.
struct JsEnv {
  std::unordered_map<std::string, Value> vars;
  std::shared_ptr<JsEnv> parent;
  bool captured = false;  // some script function closes over it
};
using EnvPtr = std::shared_ptr<JsEnv>;

struct JsObject {
  std::unordered_map<std::string, Value> props;
  // Arrays.
  bool is_array = false;
  std::vector<Value> elements;
  // Callables: native or script function.
  NativeFn native;
  const JsExpr* fn = nullptr;  // kFunction literal (owned by the program)
  EnvPtr closure;
  // Host binding: a DOM node (wrapper identity compares by this).
  xml::Node* node = nullptr;
  // Property hooks for host objects. get returns engaged Value or
  // undefined-with-handled=false; set returns true if handled.
  std::function<bool(const std::string&, Interpreter&, Value*)> get_hook;
  std::function<bool(const std::string&, const Value&, Interpreter&)>
      set_hook;
};

class Interpreter {
 public:
  Interpreter();
  // Clears every scope a script function closed over: a function stored
  // in the scope it closes over is a shared_ptr cycle.
  ~Interpreter();

  // The global scope (hosts install document/window/... here).
  EnvPtr globals() { return globals_; }
  void SetGlobal(const std::string& name, Value value) {
    globals_->vars[name] = std::move(value);
  }

  // Runs a program in the global scope. Keeps the program alive (its
  // function ASTs are referenced by closures).
  Status Run(std::unique_ptr<JsProgram> program);

  // Evaluates an expression (inline handlers) in a child scope with
  // extra bindings.
  Result<Value> EvalExpression(
      const JsExpr& expr,
      const std::vector<std::pair<std::string, Value>>& bindings);

  // Calls a function value with arguments.
  Result<Value> CallValue(const Value& fn, std::vector<Value> args,
                          Value this_value);

  // Keeps an expression AST alive for the interpreter's lifetime.
  const JsExpr* AdoptExpression(JsExprPtr expr);

  // Helper for hosts: a native function object.
  static Value MakeNative(NativeFn fn);
  // A wrapper object for a DOM node (configured by the host's factory).
  std::function<Value(xml::Node*)> node_wrapper;

 private:
  enum class Flow { kNormal, kReturn, kBreak, kContinue };

  Result<Value> Eval(const JsExpr& e, EnvPtr env);
  Status Exec(const JsStmt& s, EnvPtr env, Flow* flow, Value* ret);
  Status ExecBlock(const std::vector<JsStmtPtr>& body, EnvPtr env,
                   Flow* flow, Value* ret);
  Result<Value> EvalAssignTarget(const JsExpr& target, EnvPtr env,
                                 const Value& value);
  Result<Value> GetMember(const Value& base, const std::string& name);
  Status SetMember(const Value& base, const std::string& name,
                   const Value& value);
  Value* FindVar(const std::string& name, EnvPtr env);
  // A script function object closing over `env`; records the scope.
  Value MakeFunction(const JsExpr* fn, const EnvPtr& env);

  EnvPtr globals_;
  std::vector<std::unique_ptr<JsProgram>> programs_;
  std::vector<JsExprPtr> adopted_exprs_;
  std::vector<std::weak_ptr<JsEnv>> captured_envs_;
  int call_depth_ = 0;
  static constexpr int kMaxCallDepth = 256;
};

// JS loose equality/relational helpers (exposed for tests).
bool JsLooseEquals(const Value& a, const Value& b);

}  // namespace xqib::minijs

#endif  // XQIB_MINIJS_INTERP_H_
