// Application workload tests: every app compiles, runs on the engine, and
// satisfies domain-specific correctness properties; wasm and native twins
// agree on identical inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "apps/workloads.hpp"
#include "common/rng.hpp"
#include "procfaas/procfaas.hpp"
#include "test_util.hpp"

namespace sledge::apps {
namespace {

using engine::Tier;
using engine::WasmModule;

std::string fn_path(const std::string& app) {
  return std::string(SLEDGE_FN_BINDIR) + "/fn_" + app;
}

engine::WasmModule::Config aot_cfg() {
  engine::WasmModule::Config cfg;
  cfg.tier = Tier::kAot;
  return cfg;
}

// Runs app `name` on the engine with its canonical request.
std::vector<uint8_t> run_app(const std::string& name,
                             const std::vector<uint8_t>& request) {
  auto wasm = app_wasm(name);
  EXPECT_TRUE(wasm.ok()) << wasm.error_message();
  if (!wasm.ok()) return {};
  auto mod = WasmModule::load(wasm.value(), aot_cfg());
  EXPECT_TRUE(mod.ok()) << mod.error_message();
  if (!mod.ok()) return {};
  auto sb = mod->instantiate();
  EXPECT_TRUE(sb.ok());
  if (!sb.ok()) return {};
  std::vector<uint8_t> response;
  auto out = sb->run_serverless(request, &response);
  EXPECT_TRUE(out.ok()) << name << ": " << out.describe();
  return response;
}

double read_f64(const std::vector<uint8_t>& bytes, size_t idx) {
  double v = 0;
  if ((idx + 1) * 8 <= bytes.size()) {
    std::memcpy(&v, bytes.data() + idx * 8, 8);
  }
  return v;
}

int32_t read_i32(const std::vector<uint8_t>& bytes, size_t off) {
  int32_t v = 0;
  if (off + 4 <= bytes.size()) std::memcpy(&v, bytes.data() + off, 4);
  return v;
}

class AppCompilesTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AppCompilesTest, CompilesAndRunsOnAllTiers) {
  auto wasm = app_wasm(GetParam());
  ASSERT_TRUE(wasm.ok()) << wasm.error_message();
  for (Tier tier : {Tier::kInterpFast, Tier::kAot}) {
    engine::WasmModule::Config cfg;
    cfg.tier = tier;
    auto mod = WasmModule::load(wasm.value(), cfg);
    ASSERT_TRUE(mod.ok()) << mod.error_message();
    auto sb = mod->instantiate();
    ASSERT_TRUE(sb.ok());
    std::vector<uint8_t> response;
    auto out = sb->run_serverless(app_request(GetParam()), &response);
    EXPECT_TRUE(out.ok()) << out.describe();
    EXPECT_FALSE(response.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppCompilesTest,
                         ::testing::ValuesIn(app_names()),
                         [](const auto& info) { return info.param; });

TEST(EkfTest, StateMovesTowardMeasurement) {
  std::vector<uint8_t> request = app_request("ekf");
  std::vector<uint8_t> response = run_app("ekf", request);
  ASSERT_EQ(response.size(), 576u);  // x[8] + P[8][8]

  // Input state x[0]=0, measurement z[0]=0.12 after a 0.1s predict with
  // vx=1: prediction is 0.1; the update must pull toward 0.12.
  double x0 = read_f64(response, 0);
  EXPECT_GT(x0, 0.09);
  EXPECT_LT(x0, 0.13);

  // Covariance must shrink after incorporating a measurement.
  double p00 = read_f64(response, 8);  // P[0][0]
  EXPECT_GT(p00, 0.0);
  EXPECT_LT(p00, 1.0);
}

TEST(EkfTest, RepeatedUpdatesConverge) {
  // Feed the filter its own output: tracking a constant position should
  // collapse the covariance over iterations.
  std::vector<uint8_t> state = app_request("ekf");
  double first_p00 = 0, last_p00 = 0;
  for (int i = 0; i < 10; ++i) {
    std::vector<uint8_t> response = run_app("ekf", state);
    ASSERT_EQ(response.size(), 576u);
    last_p00 = read_f64(response, 8);
    if (i == 0) first_p00 = last_p00;
    // Rebuild the request: returned state+P plus a fresh measurement.
    state.assign(response.begin(), response.end());
    double z[4] = {read_f64(response, 0) + 0.05, 0.0, 0.0, 0.0};
    const uint8_t* zp = reinterpret_cast<const uint8_t*>(z);
    state.insert(state.end(), zp, zp + 32);
  }
  EXPECT_LT(last_p00, first_p00);
  EXPECT_GT(last_p00, 0.0);
}

TEST(GocrTest, RecognizesCleanPage) {
  std::vector<uint8_t> response = run_app("gocr", app_request("gocr"));
  std::string text(response.begin(), response.end());
  // Page renders "SLEDGE0" repeated; with 3% noise recognition must hold.
  EXPECT_NE(text.find("SLEDGE0"), std::string::npos) << text;
}

TEST(GocrTest, SurvivesModerateNoise) {
  std::vector<uint8_t> page = app_request("gocr");
  sledge::Rng rng(3);
  // Flip 5% of pixels.
  for (auto& b : page) {
    if (rng.below(100) < 5) b = b ? 0 : 1;
  }
  std::vector<uint8_t> response = run_app("gocr", page);
  std::string text(response.begin(), response.end());
  // Count how many of the first row's 16 characters match the expectation.
  const char* expect = "SLEDGE0SLEDGE0SL";
  int correct = 0;
  for (int i = 0; i < 16 && i < static_cast<int>(text.size()); ++i) {
    if (text[i] == expect[i]) ++correct;
  }
  EXPECT_GE(correct, 12) << text;
}

TEST(Cifar10Test, DeterministicClassAndScores) {
  std::vector<uint8_t> r1 = run_app("cifar10", app_request("cifar10"));
  std::vector<uint8_t> r2 = run_app("cifar10", app_request("cifar10"));
  ASSERT_EQ(r1.size(), 1u + 40u);  // class byte + 10 i32 scores
  EXPECT_EQ(r1, r2);
  EXPECT_LT(r1[0], 10);  // a valid class id
  // The argmax score must actually be the maximum.
  int best = r1[0];
  int32_t best_score = read_i32(r1, 1 + best * 4);
  for (int k = 0; k < 10; ++k) {
    EXPECT_LE(read_i32(r1, 1 + k * 4), best_score) << k;
  }
}

TEST(Cifar10Test, DifferentImagesCanDiffer) {
  std::vector<uint8_t> img1 = app_request("cifar10");
  std::vector<uint8_t> img2(3072, 200);  // saturated image
  auto r1 = run_app("cifar10", img1);
  auto r2 = run_app("cifar10", img2);
  ASSERT_FALSE(r1.empty());
  ASSERT_FALSE(r2.empty());
  // Scores must differ even if the argmax happens to coincide.
  EXPECT_NE(std::vector<uint8_t>(r1.begin() + 1, r1.end()),
            std::vector<uint8_t>(r2.begin() + 1, r2.end()));
}

TEST(ResizeTest, OutputDimensionsAndRange) {
  std::vector<uint8_t> response = run_app("resize", app_request("resize"));
  ASSERT_EQ(response.size(), 12288u);  // 128 x 96
}

TEST(ResizeTest, PreservesConstantRegions) {
  std::vector<uint8_t> img(49152, 128);  // flat gray
  std::vector<uint8_t> out = run_app("resize", img);
  ASSERT_EQ(out.size(), 12288u);
  for (size_t i = 0; i < out.size(); i += 997) {
    EXPECT_NEAR(out[i], 128, 1) << i;
  }
}

TEST(ResizeTest, PreservesMeanBrightness) {
  std::vector<uint8_t> img = app_request("resize");
  std::vector<uint8_t> out = run_app("resize", img);
  ASSERT_EQ(out.size(), 12288u);
  double in_mean = 0, out_mean = 0;
  for (uint8_t b : img) in_mean += b;
  for (uint8_t b : out) out_mean += b;
  in_mean /= static_cast<double>(img.size());
  out_mean /= static_cast<double>(out.size());
  EXPECT_NEAR(in_mean, out_mean, 4.0);
}

TEST(LpdTest, FindsPlantedPlate) {
  std::vector<uint8_t> response = run_app("lpd", app_request("lpd"));
  ASSERT_GE(response.size(), 16u);
  int32_t x = read_i32(response, 0);
  int32_t y = read_i32(response, 4);
  int32_t w = read_i32(response, 8);
  int32_t h = read_i32(response, 12);
  // Planted plate: (110, 150, 100, 30). The detected box must overlap it.
  int32_t ix = std::max(x, 110), iy = std::max(y, 150);
  int32_t ix2 = std::min(x + w, 110 + 100), iy2 = std::min(y + h, 150 + 30);
  EXPECT_GT(ix2, ix) << "no x overlap: " << x << "," << w;
  EXPECT_GT(iy2, iy) << "no y overlap: " << y << "," << h;
}

// Native twin agreement: the exact same request through the natively
// compiled binary and the Wasm build must agree.
//
// Seeded variations of an app's canonical request, after the end-to-end
// benchmark's noise model: ink specks on GOCR's binary page, +-6 (CIFAR-10)
// or +-4 jitter on the rasters, and a jittered EKF state, fix and
// covariance diagonal.
std::vector<uint8_t> noisy_request(const std::string& app, Rng& rng) {
  std::vector<uint8_t> b = app_request(app);
  if (app == "gocr") {
    for (int k = 0; k < 82; ++k) {
      b[rng.below(static_cast<uint32_t>(b.size()))] = 1;
    }
  } else if (app == "ekf") {
    auto jitter = [&](size_t i, double scale, double shift) {
      double v = read_f64(b, i) * scale + shift;
      std::memcpy(b.data() + i * 8, &v, 8);
    };
    for (size_t i = 0; i < 8; ++i) jitter(i, 1.0, rng.next_double() - 0.5);
    for (size_t i = 0; i < 8; ++i) {
      jitter(8 + i * 9, 0.5 + 1.5 * rng.next_double(), 0.0);
    }
    for (size_t i = 72; i < 76; ++i) jitter(i, 1.0, rng.next_double() - 0.5);
  } else {
    const int amp = app == "cifar10" ? 6 : 4;
    for (auto& x : b) {
      x = static_cast<uint8_t>(std::clamp(x + rng.range(-amp, amp), 0, 255));
    }
  }
  return b;
}

class TwinTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TwinTest, NativeAndWasmAgree) {
  const std::string& name = GetParam();
  auto wasm = app_wasm(name);
  ASSERT_TRUE(wasm.ok()) << wasm.error_message();
  auto mod = WasmModule::load(wasm.value(), aot_cfg());
  ASSERT_TRUE(mod.ok()) << mod.error_message();

  std::vector<std::vector<uint8_t>> requests = {app_request(name)};
  Rng rng(0x7717);
  for (int i = 0; i < 3; ++i) requests.push_back(noisy_request(name, rng));

  for (size_t r = 0; r < requests.size(); ++r) {
    SCOPED_TRACE("request " + std::to_string(r));
    auto sb = mod->instantiate();
    ASSERT_TRUE(sb.ok());
    std::vector<uint8_t> wasm_out;
    auto out = sb->run_serverless(requests[r], &wasm_out);
    ASSERT_TRUE(out.ok()) << out.describe();
    std::vector<uint8_t> native_out;
    ASSERT_TRUE(procfaas::spawn_function_process(fn_path(name), requests[r],
                                                 &native_out));
    ASSERT_EQ(wasm_out.size(), native_out.size());
    if (name == "ekf") {
      // Float results: compare with tolerance (compilers may fuse FP ops
      // differently between the two builds).
      for (size_t i = 0; i < wasm_out.size() / 8; ++i) {
        EXPECT_NEAR(read_f64(wasm_out, i), read_f64(native_out, i), 1e-9) << i;
      }
    } else {
      EXPECT_EQ(wasm_out, native_out);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, TwinTest,
                         ::testing::Values("ekf", "gocr", "cifar10", "resize",
                                           "lpd"),
                         [](const auto& info) { return info.param; });

TEST(WorkloadCatalogTest, SourcesExistForAllApps) {
  for (const std::string& name : app_names()) {
    auto src = load_app_source(name);
    EXPECT_TRUE(src.ok()) << name << ": " << src.error_message();
    EXPECT_FALSE(src->empty());
  }
  for (const std::string& name : polybench_names()) {
    auto src = load_polybench_source(name);
    EXPECT_TRUE(src.ok()) << name << ": " << src.error_message();
  }
  EXPECT_EQ(polybench_names().size(), 30u);
}

}  // namespace
}  // namespace sledge::apps
