// Flattened, branch-free tree-ensemble inference (DESIGN.md §10).
//
// The fitted ensembles walk node-based trees one row at a time on the
// legacy path (`predict_proba_nodewalk` / `raw_score` / `predict_row`).
// This compiles any of them into flat structures evaluated in row blocks
// with no data-dependent branches, one evaluation per tree kind:
//
//  * Binary trees (Random Forest CARTs, XGBoost/LightGBM) use a compact
//    16-byte node layout (children adjacent, leaves self-looping) chased
//    for a fixed per-tree depth with four interleaved rows, so the walk
//    is branch-free and the four pointer chases overlap in the memory
//    pipeline.
//  * CatBoost's oblivious trees walk row-outer, one branch-free
//    `idx = (idx << 1) | (x[f] > t)` per level, four rows interleaved.
//
// Bit-identity contract: every compiled test performs the same double
// comparison as the legacy walk (thresholds are copied verbatim), the
// selected leaf is therefore the legacy leaf, and per-row tree
// contributions accumulate in legacy tree order, so probabilities are
// identical doubles — asserted against the node-walk oracles in
// tests/test_features_fast.cpp, at every thread count in
// tests/test_parallel_determinism.cpp, and in the no-SIMD CI build. The
// branch-free walks require finite feature values (opcode histograms
// always are); NaN rows would diverge from the `x <= t` oracle semantics.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/decision_tree.hpp"
#include "ml/matrix.hpp"

namespace phishinghook::ml {

struct ObliviousTree;  // catboost.hpp

class FlatTreeEnsemble {
 public:
  /// How per-row tree sums turn into a probability.
  enum class Output {
    kAverage,     ///< mean of leaf fractions (Random Forest)
    kSigmoidSum,  ///< sigmoid(base + sum of leaf values) (boosters)
  };

  FlatTreeEnsemble() = default;

  /// Random Forest: averages fitted CART leaf fractions.
  static FlatTreeEnsemble from_forest(
      const std::vector<DecisionTreeClassifier>& trees);

  /// XGBoost/LightGBM-style boosters: sigmoid over base + leaf weights.
  static FlatTreeEnsemble from_boosted(
      const std::vector<std::vector<TreeNode>>& trees, double base_score);

  /// CatBoost oblivious trees: per-level (feature, threshold) tests with
  /// `>` semantics indexing a 2^depth leaf table.
  static FlatTreeEnsemble from_oblivious(
      const std::vector<ObliviousTree>& trees, double base_score);

  bool empty() const { return tree_count_ == 0; }
  std::size_t tree_count() const { return tree_count_; }
  std::size_t node_count() const { return node_count_; }
  /// 1 + the highest feature id any test consults; predict requires at
  /// least this many columns.
  std::size_t n_features() const { return n_features_; }

  /// P(phishing) per row, parallelized over row chunks on the
  /// common::ThreadPool (each output slot written by exactly one task).
  std::vector<double> predict_proba(const Matrix& x) const;

  /// Variant into a caller buffer of x.rows() doubles. Throws
  /// InvalidArgument on size mismatch or when x has fewer than
  /// n_features() columns, StateError when empty.
  void predict_into(const Matrix& x, std::span<double> out) const;

 private:
  enum class Kind { kBinary, kOblivious };

  /// Compact walk node: 16 bytes, children adjacent (`right == left + 1`),
  /// stepped branch-free as `left + (x[feature] > threshold)`. Leaves
  /// self-loop (`left` = own index, `threshold` = +inf so the step never
  /// advances) and the walk runs a *fixed* per-tree depth with no leaf
  /// test; the landing node's payload lives in walk_node_value_.
  struct WalkNode {
    double threshold = 0.0;    ///< the node's own cut; +inf on leaves
    std::int32_t feature = 0;  ///< consulted even by leaves (always left)
    std::int32_t left = 0;
  };

  /// Per-tree dispatch record, in legacy tree order.
  struct TreeRef {
    std::uint32_t depth = 0;      ///< fixed chase length
    std::uint32_t walk_root = 0;  ///< into walk_nodes_
  };

  /// Rows per block: the per-block accumulators live on the stack.
  static constexpr std::size_t kRowBlock = 32;

  void compile_binary(const std::vector<std::span<const TreeNode>>& trees);
  void compile_oblivious(const std::vector<ObliviousTree>& trees);

  void predict_block(const Matrix& x, std::size_t begin, std::size_t end,
                     std::span<double> out) const;

  Kind kind_ = Kind::kBinary;
  Output output_ = Output::kAverage;
  double base_score_ = 0.0;
  std::size_t tree_count_ = 0;
  std::size_t node_count_ = 0;
  std::size_t n_features_ = 0;

  // Binary section (RF / GBDT / LightGBM).
  std::vector<TreeRef> trees_;
  std::vector<WalkNode> walk_nodes_;
  std::vector<double> walk_node_value_;  ///< per node; leaves carry payload

  // Oblivious section (CatBoost): per-tree level tests + leaf table,
  // stored contiguously across trees.
  std::vector<std::int32_t> level_feature_;
  std::vector<double> level_threshold_;
  std::vector<double> leaf_value_;
  std::vector<std::uint32_t> level_offset_;  ///< per tree, into level_*
  std::vector<std::uint32_t> level_depth_;   ///< per tree
  std::vector<std::uint32_t> leaf_offset_;   ///< per tree, into leaf_value_
};

}  // namespace phishinghook::ml
