// Execution-semantics tests, parameterized over every engine tier and the
// two principal bounds strategies: the same Wasm module must behave
// identically (WebAssembly spec semantics) everywhere — trapping division,
// masked shifts, NaN-aware min/max, trapping float->int truncation, memory
// bounds, CFI-checked indirect calls, call-stack exhaustion.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>

#include "common/file_util.hpp"
#include "engine/cc_driver.hpp"
#include "minicc/minicc.hpp"
#include "test_util.hpp"
#include "wasm/builder.hpp"

namespace sledge::engine {
namespace {

using sledge::testutil::run_module;
using wasm::FunctionBuilder;
using wasm::ModuleBuilder;
using wasm::Op;
using V = wasm::ValType;

class ExecTest
    : public ::testing::TestWithParam<std::tuple<Tier, BoundsStrategy>> {
 protected:
  WasmModule::Config config() const {
    WasmModule::Config cfg;
    cfg.tier = std::get<0>(GetParam());
    cfg.strategy = std::get<1>(GetParam());
    return cfg;
  }

  // Builds a module with one exported function "f".
  template <typename Fn>
  std::vector<uint8_t> module_with(std::vector<V> params,
                                   std::vector<V> results, Fn&& emit,
                                   bool with_memory = true) {
    ModuleBuilder b;
    uint32_t t = b.add_type(std::move(params), std::move(results));
    if (with_memory) b.set_memory(1, 4);
    uint32_t f = b.declare_function(t);
    emit(b.function(f));
    b.export_function("f", f);
    return b.build();
  }

  InvokeOutcome run(const std::vector<uint8_t>& bytes,
                    const std::vector<Value>& args) {
    return run_module(bytes, config(), "f", args);
  }
};

TEST_P(ExecTest, AddWraps) {
  auto bytes = module_with({V::kI32, V::kI32}, {V::kI32},
                           [](FunctionBuilder& f) {
                             f.local_get(0);
                             f.local_get(1);
                             f.emit(Op::kI32Add);
                             f.end();
                           });
  auto out = run(bytes, {Value::i32(INT32_MAX), Value::i32(1)});
  ASSERT_TRUE(out.ok()) << out.describe();
  EXPECT_EQ(out.value->as_i32(), INT32_MIN);
}

TEST_P(ExecTest, DivByZeroTraps) {
  auto bytes = module_with({V::kI32, V::kI32}, {V::kI32},
                           [](FunctionBuilder& f) {
                             f.local_get(0);
                             f.local_get(1);
                             f.emit(Op::kI32DivS);
                             f.end();
                           });
  auto out = run(bytes, {Value::i32(10), Value::i32(0)});
  EXPECT_EQ(out.trap, TrapCode::kDivByZero) << out.describe();
}

TEST_P(ExecTest, DivOverflowTraps) {
  auto bytes = module_with({V::kI32, V::kI32}, {V::kI32},
                           [](FunctionBuilder& f) {
                             f.local_get(0);
                             f.local_get(1);
                             f.emit(Op::kI32DivS);
                             f.end();
                           });
  auto out = run(bytes, {Value::i32(INT32_MIN), Value::i32(-1)});
  EXPECT_EQ(out.trap, TrapCode::kIntegerOverflow);
}

TEST_P(ExecTest, RemOfMinByMinusOneIsZero) {
  auto bytes = module_with({V::kI32, V::kI32}, {V::kI32},
                           [](FunctionBuilder& f) {
                             f.local_get(0);
                             f.local_get(1);
                             f.emit(Op::kI32RemS);
                             f.end();
                           });
  auto out = run(bytes, {Value::i32(INT32_MIN), Value::i32(-1)});
  ASSERT_TRUE(out.ok()) << out.describe();
  EXPECT_EQ(out.value->as_i32(), 0);
}

TEST_P(ExecTest, ShiftCountsAreMasked) {
  auto bytes = module_with({V::kI32, V::kI32}, {V::kI32},
                           [](FunctionBuilder& f) {
                             f.local_get(0);
                             f.local_get(1);
                             f.emit(Op::kI32Shl);
                             f.end();
                           });
  auto out = run(bytes, {Value::i32(1), Value::i32(33)});  // 33 & 31 == 1
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value->as_i32(), 2);
}

TEST_P(ExecTest, RotlWorks) {
  auto bytes = module_with({V::kI32, V::kI32}, {V::kI32},
                           [](FunctionBuilder& f) {
                             f.local_get(0);
                             f.local_get(1);
                             f.emit(Op::kI32Rotl);
                             f.end();
                           });
  auto out = run(bytes, {Value::i32(static_cast<int32_t>(0x80000001u)),
                         Value::i32(1)});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(static_cast<uint32_t>(out.value->as_i32()), 3u);
}

TEST_P(ExecTest, ClzCtzOfZero) {
  auto bytes = module_with({V::kI32}, {V::kI32}, [](FunctionBuilder& f) {
    f.local_get(0);
    f.emit(Op::kI32Clz);
    f.local_get(0);
    f.emit(Op::kI32Ctz);
    f.emit(Op::kI32Add);
    f.end();
  });
  auto out = run(bytes, {Value::i32(0)});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value->as_i32(), 64);  // 32 + 32
}

TEST_P(ExecTest, FloatMinPropagatesNaN) {
  auto bytes = module_with({V::kF64, V::kF64}, {V::kF64},
                           [](FunctionBuilder& f) {
                             f.local_get(0);
                             f.local_get(1);
                             f.emit(Op::kF64Min);
                             f.end();
                           });
  auto out = run(bytes, {Value::f64(std::nan("")), Value::f64(1.0)});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(std::isnan(out.value->as_f64()));
}

TEST_P(ExecTest, FloatMinNegativeZero) {
  auto bytes = module_with({V::kF64, V::kF64}, {V::kF64},
                           [](FunctionBuilder& f) {
                             f.local_get(0);
                             f.local_get(1);
                             f.emit(Op::kF64Min);
                             f.end();
                           });
  auto out = run(bytes, {Value::f64(0.0), Value::f64(-0.0)});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(std::signbit(out.value->as_f64()));
}

TEST_P(ExecTest, TruncNaNTraps) {
  auto bytes = module_with({V::kF64}, {V::kI32}, [](FunctionBuilder& f) {
    f.local_get(0);
    f.emit(Op::kI32TruncF64S);
    f.end();
  });
  auto out = run(bytes, {Value::f64(std::nan(""))});
  EXPECT_EQ(out.trap, TrapCode::kInvalidConversion);
}

TEST_P(ExecTest, TruncOutOfRangeTraps) {
  auto bytes = module_with({V::kF64}, {V::kI32}, [](FunctionBuilder& f) {
    f.local_get(0);
    f.emit(Op::kI32TruncF64S);
    f.end();
  });
  EXPECT_EQ(run(bytes, {Value::f64(3e10)}).trap, TrapCode::kIntegerOverflow);
  auto ok = run(bytes, {Value::f64(-2147483648.0)});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value->as_i32(), INT32_MIN);
}

TEST_P(ExecTest, SignExtension) {
  auto bytes = module_with({V::kI32}, {V::kI32}, [](FunctionBuilder& f) {
    f.local_get(0);
    f.emit(Op::kI32Extend8S);
    f.end();
  });
  auto out = run(bytes, {Value::i32(0x180)});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value->as_i32(), -128);
}

TEST_P(ExecTest, MemoryLoadStoreWidths) {
  auto bytes = module_with({}, {V::kI64}, [](FunctionBuilder& f) {
    // store i64 at 8, read back pieces.
    f.i32_const(8);
    f.i64_const(static_cast<int64_t>(0x1122334455667788ull));
    f.mem(Op::kI64Store);
    f.i32_const(8);
    f.mem(Op::kI64Load8U);  // LE low byte: 0x88
    f.i32_const(9);
    f.mem(Op::kI64Load16S);  // bytes 9..10 = 0x6677 -> positive
    f.emit(Op::kI64Add);
    f.end();
  });
  auto out = run(bytes, {});
  ASSERT_TRUE(out.ok()) << out.describe();
  EXPECT_EQ(out.value->as_i64(), 0x88 + 0x6677);
}

TEST_P(ExecTest, OutOfBoundsLoadTraps) {
  auto bytes = module_with({V::kI32}, {V::kI32}, [](FunctionBuilder& f) {
    f.local_get(0);
    f.mem(Op::kI32Load);
    f.end();
  });
  // Memory is 1 page (65536 bytes): offset 65533 + width 4 is out.
  auto out = run(bytes, {Value::i32(65533)});
  if (std::get<1>(GetParam()) == BoundsStrategy::kNone) {
    GTEST_SKIP() << "no bounds checks in kNone mode";
  }
  EXPECT_EQ(out.trap, TrapCode::kOutOfBoundsMemory) << out.describe();
}

TEST_P(ExecTest, FarOutOfBoundsLoadTraps) {
  auto bytes = module_with({V::kI32}, {V::kI32}, [](FunctionBuilder& f) {
    f.local_get(0);
    f.mem(Op::kI32Load);
    f.end();
  });
  if (std::get<1>(GetParam()) == BoundsStrategy::kNone) {
    GTEST_SKIP() << "no bounds checks in kNone mode";
  }
  auto out = run(bytes, {Value::i32(static_cast<int32_t>(0x7FFFFFF0u))});
  EXPECT_EQ(out.trap, TrapCode::kOutOfBoundsMemory) << out.describe();
}

TEST_P(ExecTest, MemoryGrowAndSize) {
  auto bytes = module_with({}, {V::kI32}, [](FunctionBuilder& f) {
    f.i32_const(2);
    f.memory_grow();       // old size = 1
    f.memory_size();       // new size = 3
    f.emit(Op::kI32Mul);   // 1 * 3
    f.end();
  });
  auto out = run(bytes, {});
  ASSERT_TRUE(out.ok()) << out.describe();
  EXPECT_EQ(out.value->as_i32(), 3);
}

TEST_P(ExecTest, MemoryGrowBeyondMaxFails) {
  auto bytes = module_with({}, {V::kI32}, [](FunctionBuilder& f) {
    f.i32_const(100);  // max is 4 pages
    f.memory_grow();
    f.end();
  });
  auto out = run(bytes, {});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value->as_i32(), -1);
}

TEST_P(ExecTest, GrownMemoryIsAccessible) {
  auto bytes = module_with({}, {V::kI32}, [](FunctionBuilder& f) {
    f.i32_const(1);
    f.memory_grow();
    f.emit(Op::kDrop);
    f.i32_const(70000);  // in page 2
    f.i32_const(77);
    f.mem(Op::kI32Store);
    f.i32_const(70000);
    f.mem(Op::kI32Load);
    f.end();
  });
  auto out = run(bytes, {});
  ASSERT_TRUE(out.ok()) << out.describe();
  EXPECT_EQ(out.value->as_i32(), 77);
}

TEST_P(ExecTest, GlobalsMutate) {
  ModuleBuilder b;
  uint32_t t = b.add_type({}, {V::kI32});
  b.add_global(V::kI32, true, 10);
  uint32_t f = b.declare_function(t);
  auto& fb = b.function(f);
  fb.global_get(0);
  fb.i32_const(5);
  fb.emit(Op::kI32Add);
  fb.global_set(0);
  fb.global_get(0);
  fb.end();
  b.export_function("f", f);
  auto out = run(b.build(), {});
  ASSERT_TRUE(out.ok()) << out.describe();
  EXPECT_EQ(out.value->as_i32(), 15);
}

TEST_P(ExecTest, BrTableSelectsCase) {
  auto bytes = module_with({V::kI32}, {V::kI32}, [](FunctionBuilder& f) {
    f.block();          // depth 2 -> returns 100
    f.block();          // depth 1 -> returns 200
    f.block();          // depth 0 -> returns 300
    f.local_get(0);
    f.br_table({0, 1}, 2);
    f.end();
    f.i32_const(300);
    f.ret();
    f.end();
    f.i32_const(200);
    f.ret();
    f.end();
    f.i32_const(100);
    f.end();
  });
  auto r0 = run(bytes, {Value::i32(0)});
  auto r1 = run(bytes, {Value::i32(1)});
  auto r9 = run(bytes, {Value::i32(9)});  // default
  ASSERT_TRUE(r0.ok() && r1.ok() && r9.ok());
  EXPECT_EQ(r0.value->as_i32(), 300);
  EXPECT_EQ(r1.value->as_i32(), 200);
  EXPECT_EQ(r9.value->as_i32(), 100);
}

TEST_P(ExecTest, UnreachableTraps) {
  auto bytes = module_with({}, {}, [](FunctionBuilder& f) {
    f.emit(Op::kUnreachable);
    f.end();
  });
  EXPECT_EQ(run(bytes, {}).trap, TrapCode::kUnreachable);
}

TEST_P(ExecTest, CallIndirectDispatches) {
  ModuleBuilder b;
  uint32_t t_i = b.add_type({V::kI32}, {V::kI32});
  uint32_t t_entry = b.add_type({V::kI32, V::kI32}, {V::kI32});
  b.set_table(2, 2);
  uint32_t f_dbl = b.declare_function(t_i);
  uint32_t f_neg = b.declare_function(t_i);
  uint32_t f_go = b.declare_function(t_entry);
  {
    auto& f = b.function(f_dbl);
    f.local_get(0);
    f.local_get(0);
    f.emit(Op::kI32Add);
    f.end();
  }
  {
    auto& f = b.function(f_neg);
    f.i32_const(0);
    f.local_get(0);
    f.emit(Op::kI32Sub);
    f.end();
  }
  {
    auto& f = b.function(f_go);
    f.local_get(0);      // arg
    f.local_get(1);      // table index
    f.call_indirect(t_i);
    f.end();
  }
  b.add_element(0, {f_dbl, f_neg});
  b.export_function("f", f_go);
  auto bytes = b.build();
  auto r0 = run(bytes, {Value::i32(21), Value::i32(0)});
  auto r1 = run(bytes, {Value::i32(21), Value::i32(1)});
  ASSERT_TRUE(r0.ok() && r1.ok()) << r0.describe() << r1.describe();
  EXPECT_EQ(r0.value->as_i32(), 42);
  EXPECT_EQ(r1.value->as_i32(), -21);
}

TEST_P(ExecTest, CallIndirectTypeMismatchTrapsCfi) {
  ModuleBuilder b;
  uint32_t t_i = b.add_type({V::kI32}, {V::kI32});
  uint32_t t_d = b.add_type({V::kF64}, {V::kF64});
  uint32_t t_entry = b.add_type({}, {V::kF64});
  b.set_table(1, 1);
  uint32_t f_int = b.declare_function(t_i);
  uint32_t f_go = b.declare_function(t_entry);
  {
    auto& f = b.function(f_int);
    f.local_get(0);
    f.end();
  }
  {
    auto& f = b.function(f_go);
    f.f64_const(1.0);
    f.i32_const(0);
    f.call_indirect(t_d);  // table holds an (i32)->i32 function
    f.end();
  }
  b.add_element(0, {f_int});
  b.export_function("f", f_go);
  EXPECT_EQ(run(b.build(), {}).trap, TrapCode::kIndirectCallType);
}

TEST_P(ExecTest, CallIndirectNullAndOobTrap) {
  ModuleBuilder b;
  uint32_t t_v = b.add_type({}, {});
  uint32_t t_entry = b.add_type({V::kI32}, {});
  b.set_table(3, 3);  // entries 0..2, none initialized
  uint32_t f_go = b.declare_function(t_entry);
  {
    auto& f = b.function(f_go);
    f.local_get(0);
    f.call_indirect(t_v);
    f.end();
  }
  b.export_function("f", f_go);
  auto bytes = b.build();
  EXPECT_EQ(run(bytes, {Value::i32(1)}).trap, TrapCode::kIndirectCallNull);
  EXPECT_EQ(run(bytes, {Value::i32(50)}).trap, TrapCode::kIndirectCallOob);
}

TEST_P(ExecTest, InfiniteRecursionExhaustsCallStack) {
  ModuleBuilder b;
  uint32_t t = b.add_type({}, {});
  uint32_t f = b.declare_function(t);
  auto& fb = b.function(f);
  fb.call(f);
  fb.end();
  b.export_function("f", f);
  EXPECT_EQ(run(b.build(), {}).trap, TrapCode::kCallStackExhausted);
}

TEST_P(ExecTest, LoopComputesFactorial) {
  auto bytes = module_with({V::kI32}, {V::kI64}, [](FunctionBuilder& f) {
    uint32_t acc = f.add_local(V::kI64);
    uint32_t i = f.add_local(V::kI32);
    f.i64_const(1);
    f.local_set(acc);
    f.i32_const(1);
    f.local_set(i);
    f.block();
    f.loop();
    f.local_get(i);
    f.local_get(0);
    f.emit(Op::kI32GtS);
    f.br_if(1);
    f.local_get(acc);
    f.local_get(i);
    f.emit(Op::kI64ExtendI32S);
    f.emit(Op::kI64Mul);
    f.local_set(acc);
    f.local_get(i);
    f.i32_const(1);
    f.emit(Op::kI32Add);
    f.local_set(i);
    f.br(0);
    f.end();
    f.end();
    f.local_get(acc);
    f.end();
  });
  auto out = run(bytes, {Value::i32(20)});
  ASSERT_TRUE(out.ok()) << out.describe();
  EXPECT_EQ(out.value->as_i64(), 2432902008176640000ll);
}

TEST_P(ExecTest, DataSegmentsInitializeMemory) {
  ModuleBuilder b;
  uint32_t t = b.add_type({}, {V::kI32});
  b.set_memory(1, 1);
  b.add_data(100, {0x0D, 0xF0, 0xAD, 0x0B});
  uint32_t f = b.declare_function(t);
  auto& fb = b.function(f);
  fb.i32_const(100);
  fb.mem(Op::kI32Load);
  fb.end();
  b.export_function("f", f);
  auto out = run(b.build(), {});
  ASSERT_TRUE(out.ok()) << out.describe();
  EXPECT_EQ(static_cast<uint32_t>(out.value->as_i32()), 0x0BADF00Du);
}

TEST_P(ExecTest, StartFunctionRuns) {
  ModuleBuilder b;
  uint32_t t_v = b.add_type({}, {});
  uint32_t t_r = b.add_type({}, {V::kI32});
  b.add_global(V::kI32, true, 0);
  uint32_t f_start = b.declare_function(t_v);
  uint32_t f_read = b.declare_function(t_r);
  {
    auto& f = b.function(f_start);
    f.i32_const(1234);
    f.global_set(0);
    f.end();
  }
  {
    auto& f = b.function(f_read);
    f.global_get(0);
    f.end();
  }
  b.set_start(f_start);
  b.export_function("f", f_read);
  auto out = run(b.build(), {});
  ASSERT_TRUE(out.ok()) << out.describe();
  EXPECT_EQ(out.value->as_i32(), 1234);
}

TEST_P(ExecTest, SelectPicksByCondition) {
  auto bytes = module_with({V::kI32}, {V::kF64}, [](FunctionBuilder& f) {
    f.f64_const(2.5);
    f.f64_const(-7.25);
    f.local_get(0);
    f.emit(Op::kSelect);
    f.end();
  });
  auto t = run(bytes, {Value::i32(1)});
  auto e = run(bytes, {Value::i32(0)});
  ASSERT_TRUE(t.ok() && e.ok());
  EXPECT_DOUBLE_EQ(t.value->as_f64(), 2.5);
  EXPECT_DOUBLE_EQ(e.value->as_f64(), -7.25);
}

TEST_P(ExecTest, HostImportRoundTrip) {
  // Uses the serverless ABI: copy request into memory and write it back.
  ModuleBuilder b;
  uint32_t t_rr = b.add_type({V::kI32, V::kI32, V::kI32}, {V::kI32});
  uint32_t t_rw = b.add_type({V::kI32, V::kI32}, {V::kI32});
  uint32_t t_len = b.add_type({}, {V::kI32});
  uint32_t imp_len = b.add_import("env", "req_len", t_len);
  uint32_t imp_read = b.add_import("env", "req_read", t_rr);
  uint32_t imp_write = b.add_import("env", "resp_write", t_rw);
  b.set_memory(1, 1);
  uint32_t f = b.declare_function(t_len);
  auto& fb = b.function(f);
  uint32_t len = fb.add_local(V::kI32);
  fb.call(imp_len);
  fb.local_set(len);
  fb.i32_const(0);   // dst
  fb.i32_const(0);   // off
  fb.local_get(len);
  fb.call(imp_read);
  fb.emit(Op::kDrop);
  fb.i32_const(0);
  fb.local_get(len);
  fb.call(imp_write);
  fb.end();
  b.export_function("f", f);

  ServerlessEnv env;
  env.request = {5, 6, 7, 8, 9};
  auto out = run_module(b.build(), config(), "f", {}, &env);
  ASSERT_TRUE(out.ok()) << out.describe();
  EXPECT_EQ(out.value->as_i32(), 5);
  EXPECT_EQ(env.response, env.request);
}

TEST_P(ExecTest, HostPointerValidationTraps) {
  // resp_write with a bad pointer/length must trap, not leak memory.
  ModuleBuilder b;
  uint32_t t_rw = b.add_type({V::kI32, V::kI32}, {V::kI32});
  uint32_t t_f = b.add_type({}, {V::kI32});
  uint32_t imp_write = b.add_import("env", "resp_write", t_rw);
  b.set_memory(1, 1);
  uint32_t f = b.declare_function(t_f);
  auto& fb = b.function(f);
  fb.i32_const(65000);
  fb.i32_const(10000);  // 65000 + 10000 > 65536
  fb.call(imp_write);
  fb.end();
  b.export_function("f", f);
  ServerlessEnv env;
  auto out = run_module(b.build(), config(), "f", {}, &env);
  EXPECT_EQ(out.trap, TrapCode::kOutOfBoundsMemory) << out.describe();
}

INSTANTIATE_TEST_SUITE_P(
    AllTiers, ExecTest,
    ::testing::Combine(::testing::Values(Tier::kInterp, Tier::kInterpFast,
                                         Tier::kAotO0, Tier::kAot),
                       ::testing::Values(BoundsStrategy::kSoftware,
                                         BoundsStrategy::kVmGuard)),
    sledge::testutil::param_name);

// The aot tier's extra options are GCC's: the driver probes the compiler and
// gives anything else (clang rejects `--param=`) the plain -O2 line.
class CcDriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!cc_available()) GTEST_SKIP() << "no C compiler";
    auto dir = make_temp_dir("cc-wrapper");
    ASSERT_TRUE(dir.ok()) << dir.error_message();
    dir_ = dir.value();
  }
  void TearDown() override {
    ::unsetenv("SLEDGE_CC");
    for (const std::string& path : scripts_) ::unlink(path.c_str());
    if (!dir_.empty()) ::rmdir(dir_.c_str());
  }

  // Installs a `cc` wrapper as SLEDGE_CC that fails on any `--param`
  // option and otherwise runs `cc`; `pose_as_clang` makes it report
  // __clang__ to a predefined-macro probe (`-dM`).
  void use_param_rejecting_cc(const std::string& name, bool pose_as_clang) {
    std::string script =
        "#!/bin/sh\n"
        "for a in \"$@\"; do\n"
        "  case \"$a\" in --param*) echo \"unknown option $a\" >&2; exit 1;; "
        "esac\n"
        "done\n";
    if (pose_as_clang) {
      script += "case \" $* \" in *\" -dM \"*) exec cc -D__clang__=1 \"$@\";; "
                "esac\n";
    }
    script += "exec cc \"$@\"\n";
    const std::string path = dir_ + "/" + name;
    ASSERT_TRUE(write_file(path, script).is_ok());
    ASSERT_EQ(::chmod(path.c_str(), 0755), 0);
    scripts_.push_back(path);
    ASSERT_EQ(::setenv("SLEDGE_CC", path.c_str(), 1), 0);
  }

  static Result<WasmModule> load(Tier tier) {
    auto wasm = minicc::compile_to_wasm(R"(
int a[8];
int main() {
  int s = 0;
  for (int i = 0; i < 8; i++) { a[i] = i * i; s = s + a[i]; }
  return s;
}
)");
    EXPECT_TRUE(wasm.ok()) << wasm.error_message();
    WasmModule::Config cfg;
    cfg.tier = tier;
    return WasmModule::load(wasm.value(), cfg);
  }

  std::string dir_;
  std::vector<std::string> scripts_;
};

TEST_F(CcDriverTest, NonGccCompilerStillLoadsAot) {
  use_param_rejecting_cc("clang-like", /*pose_as_clang=*/true);
  EXPECT_FALSE(cc_is_gcc());
  auto mod = load(Tier::kAot);
  ASSERT_TRUE(mod.ok()) << mod.error_message();
  auto sb = mod->instantiate();
  ASSERT_TRUE(sb.ok());
  auto out = sb->call("main", {});
  ASSERT_TRUE(out.ok()) << out.describe();
  EXPECT_EQ(out.value->as_i32(), 140);
}

TEST_F(CcDriverTest, GccGetsParamsOnlyOnTheAotTier) {
  if (!cc_is_gcc()) GTEST_SKIP() << "cc is not GCC";
  // Same wrapper without the clang pose: the probe sees GCC, so the aot
  // tier passes `--param` (and fails), while aot_o1 stays on plain -O1.
  use_param_rejecting_cc("gcc-like", /*pose_as_clang=*/false);
  EXPECT_TRUE(cc_is_gcc());
  auto aot = load(Tier::kAot);
  ASSERT_FALSE(aot.ok());
  EXPECT_NE(aot.error_message().find("--param"), std::string::npos)
      << aot.error_message();
  EXPECT_TRUE(load(Tier::kAotO0).ok());
}

}  // namespace
}  // namespace sledge::engine
