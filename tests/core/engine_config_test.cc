// Configuration-space sweep: every invalid EngineConfig must be rejected at
// Create() with a clean status (never an abort or a half-built engine), and
// a representative grid of valid configurations must construct and answer a
// smoke query.

#include <tuple>

#include <gtest/gtest.h>

#include "tsss/core/engine.h"

namespace tsss::core {
namespace {

TEST(EngineConfigTest, InvalidConfigsRejected) {
  struct Case {
    const char* name;
    EngineConfig config;
  };
  std::vector<Case> cases;

  {
    EngineConfig c;
    c.window = 0;
    cases.push_back({"zero window", c});
  }
  {
    EngineConfig c;
    c.window = 1;
    cases.push_back({"window one", c});
  }
  {
    EngineConfig c;
    c.stride = 0;
    cases.push_back({"zero stride", c});
  }
  {
    EngineConfig c;
    c.reduced_dim = 0;
    cases.push_back({"zero reduced dim", c});
  }
  {
    EngineConfig c;
    c.reduced_dim = 7;  // odd for DFT
    cases.push_back({"odd dft dim", c});
  }
  {
    EngineConfig c;
    c.window = 4;
    c.reduced_dim = 8;  // more coefficients than the window has
    cases.push_back({"too many dft coeffs", c});
  }
  {
    EngineConfig c;
    c.reducer = reduce::ReducerKind::kHaar;
    c.window = 100;  // not a power of two
    cases.push_back({"haar non-pow2 window", c});
  }
  {
    EngineConfig c;
    c.tree.max_entries = 1;
    cases.push_back({"tree fanout one", c});
  }
  {
    EngineConfig c;
    c.tree.max_entries = 500;  // beyond page capacity at dim 6
    cases.push_back({"tree fanout beyond page", c});
  }

  for (const Case& test_case : cases) {
    auto engine = SearchEngine::Create(test_case.config);
    EXPECT_FALSE(engine.ok()) << test_case.name;
    if (!engine.ok()) {
      EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument)
          << test_case.name << ": " << engine.status();
    }
  }
}

using ValidParam = std::tuple<reduce::ReducerKind, std::size_t /*window*/,
                              std::size_t /*dim*/, std::size_t /*subtrail*/>;

class ValidConfigTest : public ::testing::TestWithParam<ValidParam> {};

TEST_P(ValidConfigTest, ConstructsAndAnswersSmokeQuery) {
  const auto [reducer, window, dim, subtrail] = GetParam();
  EngineConfig config;
  config.reducer = reducer;
  config.window = window;
  config.reduced_dim = dim;
  config.subtrail_len = subtrail;
  config.tree.max_entries = 8;
  auto engine = SearchEngine::Create(config);
  ASSERT_TRUE(engine.ok()) << engine.status();

  // Ramp data: every window is an affine image of a ramp query.
  geom::Vec ramp(window * 3);
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<double>(i);
  }
  ASSERT_TRUE((*engine)->AddSeries("ramp", ramp).ok());
  geom::Vec query(window);
  for (std::size_t i = 0; i < window; ++i) {
    query[i] = 5.0 + 2.0 * static_cast<double>(i);
  }
  auto matches = (*engine)->RangeQuery(query, 1e-6);
  ASSERT_TRUE(matches.ok()) << matches.status();
  EXPECT_EQ(matches->size(), ramp.size() - window + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ValidConfigTest,
    ::testing::Values(
        std::make_tuple(reduce::ReducerKind::kDft, std::size_t{16},
                        std::size_t{4}, std::size_t{0}),
        std::make_tuple(reduce::ReducerKind::kDft, std::size_t{128},
                        std::size_t{6}, std::size_t{0}),
        std::make_tuple(reduce::ReducerKind::kDft, std::size_t{16},
                        std::size_t{4}, std::size_t{5}),
        std::make_tuple(reduce::ReducerKind::kPaa, std::size_t{20},
                        std::size_t{5}, std::size_t{0}),
        std::make_tuple(reduce::ReducerKind::kPaa, std::size_t{20},
                        std::size_t{5}, std::size_t{3}),
        std::make_tuple(reduce::ReducerKind::kHaar, std::size_t{32},
                        std::size_t{8}, std::size_t{0}),
        std::make_tuple(reduce::ReducerKind::kIdentity, std::size_t{8},
                        std::size_t{8}, std::size_t{0}),
        std::make_tuple(reduce::ReducerKind::kIdentity, std::size_t{8},
                        std::size_t{8}, std::size_t{7})),
    [](const testing::TestParamInfo<ValidParam>& param_info) {
      return std::string(reduce::ReducerKindToString(std::get<0>(param_info.param))) +
             "_w" + std::to_string(std::get<1>(param_info.param)) + "_d" +
             std::to_string(std::get<2>(param_info.param)) + "_t" +
             std::to_string(std::get<3>(param_info.param));
    });

}  // namespace
}  // namespace tsss::core
