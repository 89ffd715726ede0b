// Scale configuration and logging plumbing.
#include <gtest/gtest.h>

#include "common/env.hpp"
#include "common/logging.hpp"
#include "common/timer.hpp"

namespace phishinghook::common {
namespace {

TEST(Scale, NamesRoundTrip) {
  EXPECT_EQ(scale_name(Scale::kSmoke), "smoke");
  EXPECT_EQ(scale_name(Scale::kSmall), "small");
  EXPECT_EQ(scale_name(Scale::kMedium), "medium");
  EXPECT_EQ(scale_name(Scale::kFull), "full");
}

TEST(Scale, ParamsGrowMonotonically) {
  const Scale scales[] = {Scale::kSmoke, Scale::kSmall, Scale::kMedium,
                          Scale::kFull};
  for (std::size_t i = 0; i + 1 < 4; ++i) {
    const ScaleParams lo = scale_params(scales[i]);
    const ScaleParams hi = scale_params(scales[i + 1]);
    EXPECT_LE(lo.corpus_size, hi.corpus_size);
    EXPECT_LE(lo.folds, hi.folds);
    EXPECT_LE(lo.nn_epochs, hi.nn_epochs);
    EXPECT_LE(lo.image_side, hi.image_side);
    EXPECT_LE(lo.max_sequence, hi.max_sequence);
  }
}

TEST(Scale, FullMatchesPaperProtocol) {
  const ScaleParams full = scale_params(Scale::kFull);
  EXPECT_EQ(full.corpus_size, 7000u);  // the paper's dataset size
  EXPECT_EQ(full.folds, 10);           // 10-fold CV
  EXPECT_EQ(full.runs, 3);             // x 3 runs = 30 trials per model
}

TEST(Scale, ImageSideDivisibleByVitPatch) {
  // The ViT patch size is 4; every scale's image side must divide evenly.
  for (Scale scale : {Scale::kSmoke, Scale::kSmall, Scale::kMedium,
                      Scale::kFull}) {
    EXPECT_EQ(scale_params(scale).image_side % 4, 0u)
        << scale_name(scale);
  }
}

TEST(Logging, LevelFiltering) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // These must be cheap no-ops below the threshold (and must not crash).
  log_debug("invisible ", 1);
  log_info("invisible ", 2);
  log_warn("invisible ", 3);
  set_log_level(original);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double loaded = sink;
    sink = loaded + static_cast<double>(i);
  }
  const double first = timer.seconds();
  EXPECT_GE(first, 0.0);
  timer.restart();
  EXPECT_LE(timer.seconds(), first + 1.0);
  EXPECT_GE(timer.milliseconds(), 0.0);
}

}  // namespace
}  // namespace phishinghook::common
