#include "engine/interp.hpp"

#include <cstring>

#include "engine/numeric.hpp"

namespace sledge::engine {

using wasm::Instr;
using wasm::Op;

std::string InvokeOutcome::describe() const {
  if (!error.empty()) return error;
  if (trap != TrapCode::kNone) return std::string("trap: ") + trap_name(trap);
  return "ok";
}

namespace {

// A control label on the (dynamically maintained) label stack.
struct Label {
  size_t start_pc;     // index of the block/loop/if instruction
  size_t stack_base;   // operand stack height at entry
  bool is_loop;
  bool has_result;
};

// Scans forward from the instruction *after* code[start] to find the
// matching end (and optionally the matching else at depth 1). This dynamic
// scan is the tier's designed-in inefficiency.
size_t find_matching_end(const std::vector<Instr>& code, size_t start,
                         size_t* else_pc = nullptr) {
  int depth = 1;
  if (else_pc) *else_pc = 0;
  for (size_t pc = start + 1; pc < code.size(); ++pc) {
    Op op = code[pc].op;
    if (op == Op::kBlock || op == Op::kLoop || op == Op::kIf) {
      ++depth;
    } else if (op == Op::kElse) {
      if (depth == 1 && else_pc) *else_pc = pc;
    } else if (op == Op::kEnd) {
      if (--depth == 0) return pc;
    }
  }
  return code.size();  // validated code never gets here
}

}  // namespace

InvokeOutcome Interpreter::invoke_export(const std::string& name,
                                         const std::vector<Value>& args) {
  const wasm::Export* exp =
      inst_.module().find_export(name, wasm::ExternalKind::kFunction);
  if (!exp) return InvokeOutcome::failed("no exported function '" + name + "'");
  return invoke(exp->index, args);
}

InvokeOutcome Interpreter::invoke(uint32_t func_index,
                                  const std::vector<Value>& args) {
  const wasm::FuncType& ft = inst_.module().func_type(func_index);
  if (args.size() != ft.params.size()) {
    return InvokeOutcome::failed("argument count mismatch");
  }
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i].type != ft.params[i]) {
      return InvokeOutcome::failed("argument type mismatch");
    }
  }
  std::vector<Slot> arg_slots;
  arg_slots.reserve(args.size());
  for (const Value& v : args) arg_slots.push_back(v.slot);

  depth_ = 0;
  Slot ret;
  // Host functions report pointer faults through raise_trap (a longjmp);
  // give them a landing pad alongside the interpreter's return-code path.
  TrapCode t;
  TrapFrame frame;
  if (sigsetjmp(frame.env, 1) == 0) {
    TrapScope scope(&frame);
    t = run(func_index, arg_slots.data(), &ret);
  } else {
    t = frame.code;
  }
  if (t != TrapCode::kNone) return InvokeOutcome::trapped(t);

  InvokeOutcome out;
  if (!ft.results.empty()) out.value = Value(ft.results[0], ret);
  return out;
}

TrapCode Interpreter::call_host(uint32_t import_index, const Slot* args,
                                Slot* ret) {
  const HostBinding* binding = inst_.import_binding(import_index);
  HostCallCtx ctx{inst_.mem_view(), inst_.host_user};
  Slot r = binding->fn(ctx, args);
  if (!binding->type.results.empty()) *ret = r;
  return TrapCode::kNone;
}

TrapCode Interpreter::run(uint32_t func_index, const Slot* args, Slot* ret) {
  if (++depth_ > kMaxDepth) {
    --depth_;
    return TrapCode::kCallStackExhausted;
  }
  struct DepthGuard {
    int& d;
    ~DepthGuard() { --d; }
  } guard{depth_};

  const wasm::Module& m = inst_.module();
  if (m.is_imported(func_index)) {
    return call_host(func_index, args, ret);
  }

  const wasm::FunctionBody& body =
      m.functions[func_index - m.num_imported_funcs()];
  const wasm::FuncType& ft = m.types[body.type_index];
  const std::vector<Instr>& code = body.code;

  // Tagged locals: params then declared locals (zero-initialized).
  std::vector<Value> locals;
  locals.reserve(ft.params.size() + body.locals.size());
  for (size_t i = 0; i < ft.params.size(); ++i) {
    locals.emplace_back(ft.params[i], args[i]);
  }
  for (wasm::ValType t : body.locals) {
    locals.emplace_back(t, Slot{});
  }

  std::vector<Value> stack;
  std::vector<Label> labels;

  auto push = [&stack](Value v) { stack.push_back(v); };
  auto pop = [&stack]() {
    Value v = stack.back();
    stack.pop_back();
    return v;
  };

  // Unwinds the label stack for a branch to relative depth d; returns the
  // next pc. Loop labels jump back to the loop header; block/if labels jump
  // past the matching end, carrying the block result.
  auto do_branch = [&](uint32_t d, size_t pc) -> size_t {
    size_t target_idx = labels.size() - 1 - d;
    Label target = labels[target_idx];
    if (target.is_loop) {
      labels.resize(target_idx);
      stack.resize(target.stack_base);
      return target.start_pc;  // re-executes the loop instr (re-pushes label)
    }
    Value result{};
    bool carry = target.has_result;
    if (carry) result = pop();
    stack.resize(target.stack_base);
    if (carry) push(result);
    labels.resize(target_idx);
    (void)pc;
    return find_matching_end(code, target.start_pc) + 1;
  };

  size_t pc = 0;
  while (pc < code.size()) {
    const Instr& ins = code[pc];
    switch (ins.op) {
      case Op::kUnreachable:
        return TrapCode::kUnreachable;
      case Op::kNop:
        ++pc;
        break;

      case Op::kBlock:
        labels.push_back({pc, stack.size(), false, ins.block_type != 0x40});
        ++pc;
        break;
      case Op::kLoop:
        labels.push_back({pc, stack.size(), true, ins.block_type != 0x40});
        ++pc;
        break;
      case Op::kIf: {
        bool cond = pop().slot.u32() != 0;
        size_t else_pc = 0;
        size_t end_pc = find_matching_end(code, pc, &else_pc);
        labels.push_back({pc, stack.size(), false, ins.block_type != 0x40});
        if (cond) {
          ++pc;
        } else if (else_pc != 0) {
          pc = else_pc + 1;
        } else {
          labels.pop_back();
          pc = end_pc + 1;
        }
        break;
      }
      case Op::kElse: {
        // Reached only by falling off the true arm: skip to the end.
        Label lab = labels.back();
        labels.pop_back();
        pc = find_matching_end(code, lab.start_pc) + 1;
        break;
      }
      case Op::kEnd: {
        if (labels.empty()) {
          // Function end.
          if (!ft.results.empty()) *ret = pop().slot;
          return TrapCode::kNone;
        }
        labels.pop_back();
        ++pc;
        break;
      }

      case Op::kBr:
        pc = do_branch(ins.a, pc);
        break;
      case Op::kBrIf: {
        bool cond = pop().slot.u32() != 0;
        pc = cond ? do_branch(ins.a, pc) : pc + 1;
        break;
      }
      case Op::kBrTable: {
        uint32_t idx = pop().slot.u32();
        const std::vector<uint32_t>& targets = m.br_tables[ins.b];
        uint32_t d = idx < targets.size() - 1 ? targets[idx] : targets.back();
        pc = do_branch(d, pc);
        break;
      }
      case Op::kReturn: {
        if (!ft.results.empty()) *ret = pop().slot;
        return TrapCode::kNone;
      }

      case Op::kCall: {
        const wasm::FuncType& callee = m.func_type(ins.a);
        size_t n = callee.params.size();
        std::vector<Slot> call_args(n);
        for (size_t i = n; i > 0; --i) call_args[i - 1] = pop().slot;
        Slot r;
        TrapCode t = run(ins.a, call_args.data(), &r);
        if (t != TrapCode::kNone) return t;
        if (!callee.results.empty()) {
          push(Value(callee.results[0], r));
        }
        ++pc;
        break;
      }
      case Op::kCallIndirect: {
        uint32_t elem = pop().slot.u32();
        if (elem >= inst_.table().size()) return TrapCode::kIndirectCallOob;
        const Instance::TableEntry& entry = inst_.table()[elem];
        if (entry.func_index < 0) return TrapCode::kIndirectCallNull;
        if (entry.canon_type != inst_.canon_type_id(ins.a)) {
          return TrapCode::kIndirectCallType;  // CFI violation
        }
        const wasm::FuncType& callee = m.types[ins.a];
        size_t n = callee.params.size();
        std::vector<Slot> call_args(n);
        for (size_t i = n; i > 0; --i) call_args[i - 1] = pop().slot;
        Slot r;
        TrapCode t =
            run(static_cast<uint32_t>(entry.func_index), call_args.data(), &r);
        if (t != TrapCode::kNone) return t;
        if (!callee.results.empty()) {
          push(Value(callee.results[0], r));
        }
        ++pc;
        break;
      }

      case Op::kDrop:
        pop();
        ++pc;
        break;
      case Op::kSelect: {
        uint32_t cond = pop().slot.u32();
        Value b = pop();
        Value a = pop();
        push(cond ? a : b);
        ++pc;
        break;
      }

      case Op::kLocalGet:
        push(locals[ins.a]);
        ++pc;
        break;
      case Op::kLocalSet:
        locals[ins.a].slot = pop().slot;
        ++pc;
        break;
      case Op::kLocalTee:
        locals[ins.a].slot = stack.back().slot;
        ++pc;
        break;
      case Op::kGlobalGet:
        push(Value(m.globals[ins.a].type, inst_.globals()[ins.a]));
        ++pc;
        break;
      case Op::kGlobalSet:
        inst_.globals()[ins.a] = pop().slot;
        ++pc;
        break;

      case Op::kMemorySize:
        push(Value::i32(static_cast<int32_t>(inst_.memory().pages())));
        ++pc;
        break;
      case Op::kMemoryGrow: {
        uint32_t delta = pop().slot.u32();
        push(Value::i32(inst_.memory().grow(delta)));
        ++pc;
        break;
      }

      case Op::kI32Const:
        push(Value::i32(ins.imm_i32()));
        ++pc;
        break;
      case Op::kI64Const:
        push(Value::i64(ins.imm_i64()));
        ++pc;
        break;
      case Op::kF32Const:
        push(Value(wasm::ValType::kF32, Slot::from_u32(ins.f32_bits())));
        ++pc;
        break;
      case Op::kF64Const:
        push(Value(wasm::ValType::kF64, Slot::from_u64(ins.f64_bits())));
        ++pc;
        break;

      default: {
        uint8_t b = static_cast<uint8_t>(ins.op);
        if (b >= 0x28 && b <= 0x35) {  // loads
          uint64_t addr = static_cast<uint64_t>(pop().slot.u32()) + ins.b;
          uint32_t width = wasm::access_width(ins.op);
          if (!inst_.memory().in_bounds(addr, width)) {
            return TrapCode::kOutOfBoundsMemory;
          }
          const uint8_t* p = inst_.memory().base() + addr;
          uint64_t raw = 0;
          std::memcpy(&raw, p, width);
          Value v;
          switch (ins.op) {
            case Op::kI32Load: v = Value::i32(static_cast<int32_t>(raw)); break;
            case Op::kI64Load: v = Value::i64(static_cast<int64_t>(raw)); break;
            case Op::kF32Load:
              v = Value(wasm::ValType::kF32,
                        Slot::from_u32(static_cast<uint32_t>(raw)));
              break;
            case Op::kF64Load:
              v = Value(wasm::ValType::kF64, Slot::from_u64(raw));
              break;
            case Op::kI32Load8S: v = Value::i32(static_cast<int8_t>(raw)); break;
            case Op::kI32Load8U: v = Value::i32(static_cast<uint8_t>(raw)); break;
            case Op::kI32Load16S: v = Value::i32(static_cast<int16_t>(raw)); break;
            case Op::kI32Load16U: v = Value::i32(static_cast<uint16_t>(raw)); break;
            case Op::kI64Load8S: v = Value::i64(static_cast<int8_t>(raw)); break;
            case Op::kI64Load8U: v = Value::i64(static_cast<uint8_t>(raw)); break;
            case Op::kI64Load16S: v = Value::i64(static_cast<int16_t>(raw)); break;
            case Op::kI64Load16U: v = Value::i64(static_cast<uint16_t>(raw)); break;
            case Op::kI64Load32S: v = Value::i64(static_cast<int32_t>(raw)); break;
            case Op::kI64Load32U: v = Value::i64(static_cast<uint32_t>(raw)); break;
            default: return TrapCode::kUnreachable;
          }
          push(v);
          ++pc;
          break;
        }
        if (b >= 0x36 && b <= 0x3E) {  // stores
          Slot val = pop().slot;
          uint64_t addr = static_cast<uint64_t>(pop().slot.u32()) + ins.b;
          uint32_t width = wasm::access_width(ins.op);
          if (!inst_.memory().in_bounds(addr, width)) {
            return TrapCode::kOutOfBoundsMemory;
          }
          uint8_t* p = inst_.memory().base() + addr;
          uint64_t raw = val.bits;
          std::memcpy(p, &raw, width);
          ++pc;
          break;
        }

        // Simple numeric ops.
        NumArity arity = numeric_arity(ins.op);
        if (arity == NumArity::kUnary) {
          Value a = pop();
          Slot out;
          TrapCode t = apply_unop(ins.op, a.slot, &out);
          if (t != TrapCode::kNone) return t;
          push(Value(numeric_result_type(ins.op), out));
          ++pc;
          break;
        }
        if (arity == NumArity::kBinary) {
          Value vb = pop();
          Value va = pop();
          Slot out;
          TrapCode t = apply_binop(ins.op, va.slot, vb.slot, &out);
          if (t != TrapCode::kNone) return t;
          push(Value(numeric_result_type(ins.op), out));
          ++pc;
          break;
        }
        return TrapCode::kUnreachable;  // validated code never gets here
      }
    }
  }
  // Fell off the end without the final kEnd (decoder prevents this).
  if (!ft.results.empty()) *ret = stack.back().slot;
  return TrapCode::kNone;
}

}  // namespace sledge::engine
