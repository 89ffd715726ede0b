// Ensemble-inference bench: per-row node walks (predict_proba_nodewalk)
// vs the branch-free compiled walks (ml::FlatTreeEnsemble) for all four
// tree ensembles, written as BENCH_infer.json next to the binary.
//
// Per model the bench emits:
//   * nodewalk      — single-thread per-row walk oracle (baseline)
//   * flat          — the production path (model.predict_proba) on one
//                     thread. ci.sh enforces the per-model speedup floor
//                     on these rows.
//   * flat_parallel — the production path on the default pool
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "ml/catboost.hpp"
#include "ml/gradient_boosting.hpp"
#include "ml/lightgbm.hpp"
#include "ml/matrix.hpp"
#include "ml/random_forest.hpp"

namespace {

using phishinghook::common::Rng;
using phishinghook::common::ThreadPool;
using phishinghook::common::Timer;
using phishinghook::ml::Matrix;

struct Row {
  std::string model;
  std::string path;
  std::size_t threads = 1;
  double ms = 0.0;        // one predict over the whole matrix
  double rows_per_s = 0.0;
  double speedup = 1.0;   // vs the model's single-thread nodewalk
};

struct Dataset {
  Matrix x;
  std::vector<int> y;
};

Dataset make_dataset(std::size_t n, std::size_t d) {
  Rng rng(42);
  Dataset data;
  data.x = Matrix(n, d);
  data.y.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      data.x.at(r, c) = rng.uniform(-3.0, 3.0);
    }
    const double margin = data.x.at(r, 0) + 0.5 * data.x.at(r, 1) -
                          0.25 * data.x.at(r, 2) + rng.normal(0.0, 0.5);
    data.y.push_back(margin > 0.0 ? 1 : 0);
  }
  return data;
}

template <typename Fn>
double best_ms(int reps, int inner, const Fn& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    for (int i = 0; i < inner; ++i) fn();
    best = std::min(best, timer.milliseconds() / inner);
  }
  return best;
}

void print_row(const Row& row) {
  std::printf(
      "  %-14s %-14s threads=%zu  %9.3f ms  %12.0f rows/s  %5.2fx\n",
      row.model.c_str(), row.path.c_str(), row.threads, row.ms,
      row.rows_per_s, row.speedup);
}

template <typename Model>
void bench_model(const std::string& name, const Model& model, const Matrix& x,
                 int reps, int inner, double& checksum,
                 std::vector<Row>& rows) {
  const double n_rows = static_cast<double>(x.rows());
  const auto finish = [&](Row& row, double baseline_ms) {
    row.rows_per_s = row.ms > 0.0 ? n_rows / (row.ms / 1000.0) : 0.0;
    row.speedup = row.ms > 0.0 ? baseline_ms / row.ms : 1.0;
    rows.push_back(row);
    print_row(row);
  };

  ThreadPool::set_global_threads(1);
  Row walk;
  walk.model = name;
  walk.path = "nodewalk";
  walk.ms = best_ms(reps, inner, [&] {
    checksum += model.predict_proba_nodewalk(x)[0];
  });
  finish(walk, walk.ms);

  // Production path: the fitted model's compiled ensemble. This is the
  // row ci.sh holds to the per-model speedup floor.
  Row flat;
  flat.model = name;
  flat.path = "flat";
  flat.ms = best_ms(reps, inner, [&] {
    checksum += model.predict_proba(x)[0];
  });
  finish(flat, walk.ms);

  ThreadPool::set_global_threads(0);
  Row par;
  par.model = name;
  par.path = "flat_parallel";
  par.threads = std::max(1u, std::thread::hardware_concurrency());
  par.ms = best_ms(reps, inner, [&] {
    checksum += model.predict_proba(x)[0];
  });
  finish(par, walk.ms);
  ThreadPool::set_global_threads(1);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const std::size_t n = smoke ? 600 : 4000;
  const Dataset data = make_dataset(n, 48);
  const int reps = smoke ? 3 : 5;
  const int inner = smoke ? 3 : 5;
  std::printf("bench_infer: %zu rows x 48 features%s\n", n,
              smoke ? " [smoke]" : "");

  double checksum = 0.0;
  std::vector<Row> rows;

  {
    phishinghook::ml::RandomForestConfig config;
    config.n_trees = smoke ? 24 : 64;
    config.max_depth = 12;
    phishinghook::ml::RandomForestClassifier model(config);
    model.fit(data.x, data.y);
    bench_model("random_forest", model, data.x, reps, inner, checksum, rows);
  }
  {
    phishinghook::ml::GradientBoostingConfig config;
    config.n_rounds = smoke ? 30 : 80;
    config.max_depth = 5;
    phishinghook::ml::GradientBoostingClassifier model(config);
    model.fit(data.x, data.y);
    bench_model("xgboost", model, data.x, reps, inner, checksum, rows);
  }
  {
    phishinghook::ml::LightGbmConfig config;
    config.n_rounds = smoke ? 30 : 80;
    phishinghook::ml::LightGbmClassifier model(config);
    model.fit(data.x, data.y);
    bench_model("lightgbm", model, data.x, reps, inner, checksum, rows);
  }
  {
    phishinghook::ml::CatBoostConfig config;
    config.n_rounds = smoke ? 20 : 60;
    config.depth = 6;
    phishinghook::ml::CatBoostClassifier model(config);
    model.fit(data.x, data.y);
    bench_model("catboost", model, data.x, reps, inner, checksum, rows);
  }
  ThreadPool::set_global_threads(0);
  std::printf("  (checksum %.3f)\n", checksum);

  FILE* out = std::fopen("BENCH_infer.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_infer.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"infer\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"rows\": %zu,\n", n);
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out,
                 "    {\"model\": \"%s\", \"path\": \"%s\", "
                 "\"threads\": %zu, \"ms\": %.4f, \"rows_per_s\": %.1f, "
                 "\"speedup_vs_nodewalk\": %.2f}%s\n",
                 row.model.c_str(), row.path.c_str(), row.threads, row.ms,
                 row.rows_per_s, row.speedup, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_infer.json (%zu rows)\n", rows.size());
  return 0;
}
