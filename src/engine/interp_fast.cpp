#include "engine/interp_fast.hpp"

#include <cstring>

#include "engine/numeric.hpp"

namespace sledge::engine {

using wasm::Op;

InvokeOutcome FastInterpreter::invoke_export(const std::string& name,
                                             const std::vector<Value>& args) {
  const wasm::Export* exp =
      inst_.module().find_export(name, wasm::ExternalKind::kFunction);
  if (!exp) return InvokeOutcome::failed("no exported function '" + name + "'");
  return invoke(exp->index, args);
}

InvokeOutcome FastInterpreter::invoke(uint32_t func_index,
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
  // Landing pad for host-function raise_trap (see Interpreter::invoke).
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

TrapCode FastInterpreter::run(uint32_t func_index, const Slot* args,
                              Slot* ret) {
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
    const HostBinding* binding = inst_.import_binding(func_index);
    HostCallCtx ctx{inst_.mem_view(), inst_.host_user};
    Slot r = binding->fn(ctx, args);
    if (!binding->type.results.empty()) *ret = r;
    return TrapCode::kNone;
  }

  const FastFunc& f = fm_.func(func_index);
  const FastInstr* code = f.code.data();
  const uint32_t code_len = static_cast<uint32_t>(f.code.size());

  // Untagged frame storage. +1 slack so `select`-style peeks stay in range.
  std::vector<Slot> frame(f.num_locals + f.max_stack + 1);
  Slot* locals = frame.data();
  Slot* stack = locals + f.num_locals;
  uint32_t sp = 0;

  for (uint32_t i = 0; i < f.num_params; ++i) locals[i] = args[i];

  uint8_t* mem_base = inst_.memory().base();
  uint64_t mem_size = inst_.memory().size_bytes();

  uint32_t pc = 0;
  while (pc < code_len) {
    const FastInstr& ins = code[pc];
    switch (ins.op) {
      case Op::kUnreachable:
        return TrapCode::kUnreachable;
      case Op::kNop:
      case Op::kBlock:
      case Op::kLoop:
        ++pc;
        break;

      case Op::kIf: {
        uint32_t cond = stack[--sp].u32();
        pc = cond ? pc + 1 : ins.target;
        break;
      }
      case Op::kElse: {
        // Fall-through from the true arm: jump to end, carrying the result.
        if (ins.carry) {
          Slot v = stack[sp - 1];
          sp = ins.unwind;
          stack[sp++] = v;
        } else {
          sp = ins.unwind;
        }
        pc = ins.target;
        break;
      }
      case Op::kEnd:
        if (pc + 1 == code_len) {
          const wasm::FuncType& ft = m.types[f.type_index];
          if (!ft.results.empty()) *ret = stack[sp - 1];
          return TrapCode::kNone;
        }
        ++pc;
        break;

      case Op::kBr: {
        if (ins.carry) {
          Slot v = stack[sp - 1];
          sp = ins.unwind;
          stack[sp++] = v;
        } else {
          sp = ins.unwind;
        }
        pc = ins.target;
        break;
      }
      case Op::kBrIf: {
        uint32_t cond = stack[--sp].u32();
        if (!cond) {
          ++pc;
          break;
        }
        if (ins.carry) {
          Slot v = stack[sp - 1];
          sp = ins.unwind;
          stack[sp++] = v;
        } else {
          sp = ins.unwind;
        }
        pc = ins.target;
        break;
      }
      case Op::kBrTable: {
        uint32_t idx = stack[--sp].u32();
        const std::vector<BrTableEntry>& pool = fm_.br_pools[ins.b];
        const BrTableEntry& e =
            idx < pool.size() - 1 ? pool[idx] : pool.back();
        if (e.carry) {
          Slot v = stack[sp - 1];
          sp = e.unwind;
          stack[sp++] = v;
        } else {
          sp = e.unwind;
        }
        pc = e.target;
        break;
      }
      case Op::kReturn: {
        const wasm::FuncType& ft = m.types[f.type_index];
        if (!ft.results.empty()) *ret = stack[sp - 1];
        return TrapCode::kNone;
      }

      case Op::kCall: {
        const wasm::FuncType& callee = m.func_type(ins.a);
        uint32_t n = static_cast<uint32_t>(callee.params.size());
        sp -= n;
        Slot r;
        TrapCode t = run(ins.a, stack + sp, &r);
        if (t != TrapCode::kNone) return t;
        if (!callee.results.empty()) stack[sp++] = r;
        mem_size = inst_.memory().size_bytes();  // callee may have grown it
        ++pc;
        break;
      }
      case Op::kCallIndirect: {
        uint32_t elem = stack[--sp].u32();
        if (elem >= inst_.table().size()) return TrapCode::kIndirectCallOob;
        const Instance::TableEntry& entry = inst_.table()[elem];
        if (entry.func_index < 0) return TrapCode::kIndirectCallNull;
        if (entry.canon_type != inst_.canon_type_id(ins.a)) {
          return TrapCode::kIndirectCallType;  // CFI violation
        }
        const wasm::FuncType& callee = m.types[ins.a];
        uint32_t n = static_cast<uint32_t>(callee.params.size());
        sp -= n;
        Slot r;
        TrapCode t =
            run(static_cast<uint32_t>(entry.func_index), stack + sp, &r);
        if (t != TrapCode::kNone) return t;
        if (!callee.results.empty()) stack[sp++] = r;
        mem_size = inst_.memory().size_bytes();
        ++pc;
        break;
      }

      case Op::kDrop:
        --sp;
        ++pc;
        break;
      case Op::kSelect: {
        uint32_t cond = stack[--sp].u32();
        Slot b = stack[--sp];
        Slot a = stack[--sp];
        stack[sp++] = cond ? a : b;
        ++pc;
        break;
      }

      case Op::kLocalGet:
        stack[sp++] = locals[ins.a];
        ++pc;
        break;
      case Op::kLocalSet:
        locals[ins.a] = stack[--sp];
        ++pc;
        break;
      case Op::kLocalTee:
        locals[ins.a] = stack[sp - 1];
        ++pc;
        break;
      case Op::kGlobalGet:
        stack[sp++] = inst_.globals()[ins.a];
        ++pc;
        break;
      case Op::kGlobalSet:
        inst_.globals()[ins.a] = stack[--sp];
        ++pc;
        break;

      case Op::kMemorySize:
        stack[sp++] = Slot::from_u32(inst_.memory().pages());
        ++pc;
        break;
      case Op::kMemoryGrow: {
        uint32_t delta = stack[--sp].u32();
        stack[sp++] = Slot::from_i32(inst_.memory().grow(delta));
        mem_size = inst_.memory().size_bytes();
        ++pc;
        break;
      }

      case Op::kI32Const:
      case Op::kI64Const:
      case Op::kF32Const:
      case Op::kF64Const:
        stack[sp++] = Slot::from_u64(ins.imm);
        ++pc;
        break;

      default: {
        uint8_t b = static_cast<uint8_t>(ins.op);
        if (b >= 0x28 && b <= 0x35) {  // loads
          uint64_t addr = static_cast<uint64_t>(stack[--sp].u32()) + ins.b;
          uint32_t width = wasm::access_width(ins.op);
          if (addr + width > mem_size) return TrapCode::kOutOfBoundsMemory;
          const uint8_t* p = mem_base + addr;
          uint64_t raw = 0;
          std::memcpy(&raw, p, width);
          Slot v;
          switch (ins.op) {
            case Op::kI32Load:
            case Op::kF32Load: v = Slot::from_u32(static_cast<uint32_t>(raw)); break;
            case Op::kI64Load:
            case Op::kF64Load: v = Slot::from_u64(raw); break;
            case Op::kI32Load8S: v = Slot::from_i32(static_cast<int8_t>(raw)); break;
            case Op::kI32Load8U: v = Slot::from_u32(static_cast<uint8_t>(raw)); break;
            case Op::kI32Load16S: v = Slot::from_i32(static_cast<int16_t>(raw)); break;
            case Op::kI32Load16U: v = Slot::from_u32(static_cast<uint16_t>(raw)); break;
            case Op::kI64Load8S: v = Slot::from_i64(static_cast<int8_t>(raw)); break;
            case Op::kI64Load8U: v = Slot::from_u64(static_cast<uint8_t>(raw)); break;
            case Op::kI64Load16S: v = Slot::from_i64(static_cast<int16_t>(raw)); break;
            case Op::kI64Load16U: v = Slot::from_u64(static_cast<uint16_t>(raw)); break;
            case Op::kI64Load32S: v = Slot::from_i64(static_cast<int32_t>(raw)); break;
            case Op::kI64Load32U: v = Slot::from_u64(static_cast<uint32_t>(raw)); break;
            default: return TrapCode::kUnreachable;
          }
          stack[sp++] = v;
          ++pc;
          break;
        }
        if (b >= 0x36 && b <= 0x3E) {  // stores
          Slot val = stack[--sp];
          uint64_t addr = static_cast<uint64_t>(stack[--sp].u32()) + ins.b;
          uint32_t width = wasm::access_width(ins.op);
          if (addr + width > mem_size) return TrapCode::kOutOfBoundsMemory;
          std::memcpy(mem_base + addr, &val.bits, width);
          ++pc;
          break;
        }

        NumArity arity = numeric_arity(ins.op);
        if (arity == NumArity::kUnary) {
          Slot out;
          TrapCode t = apply_unop(ins.op, stack[sp - 1], &out);
          if (t != TrapCode::kNone) return t;
          stack[sp - 1] = out;
          ++pc;
          break;
        }
        if (arity == NumArity::kBinary) {
          Slot out;
          TrapCode t = apply_binop(ins.op, stack[sp - 2], stack[sp - 1], &out);
          if (t != TrapCode::kNone) return t;
          --sp;
          stack[sp - 1] = out;
          ++pc;
          break;
        }
        return TrapCode::kUnreachable;
      }
    }
  }
  return TrapCode::kNone;
}

}  // namespace sledge::engine
