#include "ml/flat_tree.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <tuple>

#include "common/errors.hpp"
#include "common/thread_pool.hpp"
#include "ml/catboost.hpp"
#include "ml/gbdt_common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace phishinghook::ml {

namespace {

struct FlatInstruments {
  obs::Counter rows = obs::MetricsRegistry::global().counter(
      "ml_flat_predict_rows_total");
  obs::Counter calls = obs::MetricsRegistry::global().counter(
      "ml_flat_predict_calls_total");
};

FlatInstruments& flat_instruments() {
  static FlatInstruments instruments;
  return instruments;
}

}  // namespace

// --- compilation -------------------------------------------------------------

void FlatTreeEnsemble::compile_binary(
    const std::vector<std::span<const TreeNode>>& trees) {
  tree_count_ = trees.size();
  node_count_ = 0;
  std::int32_t max_feature = -1;
  for (std::span<const TreeNode> tree : trees) {
    node_count_ += tree.size();
    for (const TreeNode& node : tree) {
      if (!node.is_leaf()) max_feature = std::max(max_feature, node.feature);
    }
  }
  n_features_ = static_cast<std::size_t>(max_feature + 1);

  trees_.clear();
  trees_.reserve(tree_count_);
  walk_nodes_.clear();
  walk_node_value_.clear();

  for (std::span<const TreeNode> tree : trees) {
    // DFS re-layout with sibling children adjacent, leaves self-looping
    // with an always-false test so the chase runs a fixed `depth` steps
    // (the tree's maximum depth in edges) branch-free.
    TreeRef ref;
    ref.walk_root = static_cast<std::uint32_t>(walk_nodes_.size());
    walk_nodes_.emplace_back();
    walk_node_value_.push_back(0.0);
    // (source node, destination slot, depth) worklist; explicit, since
    // the layout must not assume shallow trees.
    std::vector<std::tuple<std::int32_t, std::uint32_t, std::uint32_t>> work;
    work.emplace_back(0, ref.walk_root, 0);
    while (!work.empty()) {
      const auto [src, dst, depth] = work.back();
      work.pop_back();
      ref.depth = std::max(ref.depth, depth);
      const TreeNode& node = tree[static_cast<std::size_t>(src)];
      if (node.is_leaf()) {
        WalkNode& out = walk_nodes_[dst];
        out.threshold = std::numeric_limits<double>::infinity();
        out.feature = 0;  // read, but finite x is never > +inf
        out.left = static_cast<std::int32_t>(dst);  // self-loop
        walk_node_value_[dst] = node.value;
        continue;
      }
      const std::uint32_t children =
          static_cast<std::uint32_t>(walk_nodes_.size());
      walk_nodes_.emplace_back();
      walk_nodes_.emplace_back();  // may reallocate: index `dst` afterwards
      walk_node_value_.push_back(0.0);
      walk_node_value_.push_back(0.0);
      WalkNode& out = walk_nodes_[dst];
      out.threshold = node.threshold;
      out.feature = node.feature;
      out.left = static_cast<std::int32_t>(children);
      work.emplace_back(node.left, children, depth + 1);
      work.emplace_back(node.right, children + 1, depth + 1);
    }

    trees_.push_back(ref);
  }
}

FlatTreeEnsemble FlatTreeEnsemble::from_forest(
    const std::vector<DecisionTreeClassifier>& trees) {
  FlatTreeEnsemble flat;
  flat.kind_ = Kind::kBinary;
  flat.output_ = Output::kAverage;
  std::vector<std::span<const TreeNode>> spans;
  spans.reserve(trees.size());
  for (const DecisionTreeClassifier& tree : trees) spans.emplace_back(tree.nodes());
  flat.compile_binary(spans);
  return flat;
}

FlatTreeEnsemble FlatTreeEnsemble::from_boosted(
    const std::vector<std::vector<TreeNode>>& trees, double base_score) {
  FlatTreeEnsemble flat;
  flat.kind_ = Kind::kBinary;
  flat.output_ = Output::kSigmoidSum;
  flat.base_score_ = base_score;
  std::vector<std::span<const TreeNode>> spans;
  spans.reserve(trees.size());
  for (const std::vector<TreeNode>& tree : trees) spans.emplace_back(tree);
  flat.compile_binary(spans);
  return flat;
}

void FlatTreeEnsemble::compile_oblivious(
    const std::vector<ObliviousTree>& trees) {
  tree_count_ = trees.size();
  std::size_t total_levels = 0;
  std::size_t total_leaves = 0;
  std::int32_t max_feature = -1;
  for (const ObliviousTree& tree : trees) {
    total_levels += tree.features.size();
    total_leaves += tree.leaf_values.size();
    for (const std::int32_t feature : tree.features) {
      max_feature = std::max(max_feature, feature);
    }
  }
  node_count_ = total_levels + total_leaves;
  n_features_ = static_cast<std::size_t>(max_feature + 1);

  level_feature_.clear();
  level_threshold_.clear();
  leaf_value_.clear();
  level_offset_.clear();
  level_depth_.clear();
  leaf_offset_.clear();
  level_feature_.reserve(total_levels);
  level_threshold_.reserve(total_levels);
  leaf_value_.reserve(total_leaves);
  level_offset_.reserve(trees.size());
  level_depth_.reserve(trees.size());
  leaf_offset_.reserve(trees.size());
  for (const ObliviousTree& tree : trees) {
    level_offset_.push_back(static_cast<std::uint32_t>(level_feature_.size()));
    level_depth_.push_back(static_cast<std::uint32_t>(tree.features.size()));
    leaf_offset_.push_back(static_cast<std::uint32_t>(leaf_value_.size()));
    for (std::size_t l = 0; l < tree.features.size(); ++l) {
      level_feature_.push_back(tree.features[l]);
      level_threshold_.push_back(tree.thresholds[l]);
    }
    leaf_value_.insert(leaf_value_.end(), tree.leaf_values.begin(),
                       tree.leaf_values.end());
  }
}

FlatTreeEnsemble FlatTreeEnsemble::from_oblivious(
    const std::vector<ObliviousTree>& trees, double base_score) {
  FlatTreeEnsemble flat;
  flat.kind_ = Kind::kOblivious;
  flat.output_ = Output::kSigmoidSum;
  flat.base_score_ = base_score;
  flat.compile_oblivious(trees);
  return flat;
}

// --- evaluation --------------------------------------------------------------

void FlatTreeEnsemble::predict_block(const Matrix& x, std::size_t begin,
                                     std::size_t end,
                                     std::span<double> out) const {
  double accum[kRowBlock];
  const std::size_t cols = x.cols();
  const double* rows_data = x.data().data();

  for (std::size_t block = begin; block < end; block += kRowBlock) {
    const std::size_t rows = std::min(kRowBlock, end - block);
    const double init = output_ == Output::kSigmoidSum ? base_score_ : 0.0;
    for (std::size_t i = 0; i < rows; ++i) accum[i] = init;

    if (kind_ == Kind::kBinary) {
      const WalkNode* nodes = walk_nodes_.data();
      const double* walk_values = walk_node_value_.data();
      // Tree-outer: one tree's nodes stay hot across the whole row block;
      // per-row accumulation still happens in legacy tree order.
      for (const TreeRef& tree : trees_) {
        // Fixed-depth branch-free chase, four rows interleaved so the
        // dependent node loads overlap in the memory pipeline. Feature
        // values read row-major straight from x.
        const std::uint32_t root = tree.walk_root;
        const std::uint32_t depth = tree.depth;
        std::size_t i = 0;
        for (; i + 4 <= rows; i += 4) {
          const double* r0 = rows_data + (block + i + 0) * cols;
          const double* r1 = rows_data + (block + i + 1) * cols;
          const double* r2 = rows_data + (block + i + 2) * cols;
          const double* r3 = rows_data + (block + i + 3) * cols;
          std::uint32_t n0 = root, n1 = root, n2 = root, n3 = root;
          for (std::uint32_t d = 0; d < depth; ++d) {
            const WalkNode a0 = nodes[n0];
            const WalkNode a1 = nodes[n1];
            const WalkNode a2 = nodes[n2];
            const WalkNode a3 = nodes[n3];
            n0 = static_cast<std::uint32_t>(a0.left) +
                 (r0[a0.feature] > a0.threshold);
            n1 = static_cast<std::uint32_t>(a1.left) +
                 (r1[a1.feature] > a1.threshold);
            n2 = static_cast<std::uint32_t>(a2.left) +
                 (r2[a2.feature] > a2.threshold);
            n3 = static_cast<std::uint32_t>(a3.left) +
                 (r3[a3.feature] > a3.threshold);
          }
          accum[i + 0] += walk_values[n0];
          accum[i + 1] += walk_values[n1];
          accum[i + 2] += walk_values[n2];
          accum[i + 3] += walk_values[n3];
        }
        for (; i < rows; ++i) {
          const double* r = rows_data + (block + i) * cols;
          std::uint32_t n = root;
          for (std::uint32_t d = 0; d < depth; ++d) {
            const WalkNode a = nodes[n];
            n = static_cast<std::uint32_t>(a.left) +
                (r[a.feature] > a.threshold);
          }
          accum[i] += walk_values[n];
        }
      }
    } else {
      // Row-outer oblivious walk: per row, each level is a branch-free
      // shift/or, and row data stays in L1 across trees. Four rows
      // interleave per tree so the four index chains run independently
      // while sharing each level's single (feature, threshold) load.
      for (std::size_t t = 0; t < tree_count_; ++t) {
        const std::size_t levels = level_depth_[t];
        const std::int32_t* features = level_feature_.data() + level_offset_[t];
        const double* thresholds = level_threshold_.data() + level_offset_[t];
        const double* leaves = leaf_value_.data() + leaf_offset_[t];
        std::size_t i = 0;
        for (; i + 4 <= rows; i += 4) {
          const double* r0 = rows_data + (block + i + 0) * cols;
          const double* r1 = rows_data + (block + i + 1) * cols;
          const double* r2 = rows_data + (block + i + 2) * cols;
          const double* r3 = rows_data + (block + i + 3) * cols;
          std::uint32_t i0 = 0, i1 = 0, i2 = 0, i3 = 0;
          for (std::size_t level = 0; level < levels; ++level) {
            const std::size_t f = static_cast<std::size_t>(features[level]);
            const double threshold = thresholds[level];
            i0 = (i0 << 1) | static_cast<std::uint32_t>(r0[f] > threshold);
            i1 = (i1 << 1) | static_cast<std::uint32_t>(r1[f] > threshold);
            i2 = (i2 << 1) | static_cast<std::uint32_t>(r2[f] > threshold);
            i3 = (i3 << 1) | static_cast<std::uint32_t>(r3[f] > threshold);
          }
          accum[i + 0] += leaves[i0];
          accum[i + 1] += leaves[i1];
          accum[i + 2] += leaves[i2];
          accum[i + 3] += leaves[i3];
        }
        for (; i < rows; ++i) {
          const double* row = rows_data + (block + i) * cols;
          std::uint32_t idx = 0;
          for (std::size_t level = 0; level < levels; ++level) {
            idx = (idx << 1) |
                  static_cast<std::uint32_t>(
                      row[static_cast<std::size_t>(features[level])] >
                      thresholds[level]);
          }
          accum[i] += leaves[idx];
        }
      }
    }

    if (output_ == Output::kAverage) {
      const double n_trees = static_cast<double>(tree_count_);
      for (std::size_t i = 0; i < rows; ++i) {
        out[block + i] = accum[i] / n_trees;
      }
    } else {
      for (std::size_t i = 0; i < rows; ++i) {
        out[block + i] = gbdt::sigmoid(accum[i]);
      }
    }
  }
}

void FlatTreeEnsemble::predict_into(const Matrix& x,
                                    std::span<double> out) const {
  if (empty()) throw StateError("FlatTreeEnsemble::predict before compile");
  if (out.size() != x.rows()) {
    throw InvalidArgument("FlatTreeEnsemble::predict_into buffer size " +
                          std::to_string(out.size()) + " != rows " +
                          std::to_string(x.rows()));
  }
  if (x.rows() > 0 && x.cols() < n_features_) {
    throw InvalidArgument("FlatTreeEnsemble::predict_into needs " +
                          std::to_string(n_features_) + " features, matrix has " +
                          std::to_string(x.cols()));
  }
  obs::ScopedSpan span("ml.flat_predict");
  FlatInstruments& instruments = flat_instruments();
  instruments.calls.inc();
  instruments.rows.inc(x.rows());
  common::parallel_for_chunks(x.rows(),
                              [&](std::size_t begin, std::size_t end) {
                                predict_block(x, begin, end, out);
                              });
}

std::vector<double> FlatTreeEnsemble::predict_proba(const Matrix& x) const {
  std::vector<double> out(x.rows(), 0.0);
  predict_into(x, out);
  return out;
}

}  // namespace phishinghook::ml
