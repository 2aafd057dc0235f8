#ifndef AHNTP_AUTOGRAD_VARIABLE_H_
#define AHNTP_AUTOGRAD_VARIABLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "tensor/matrix.h"

namespace ahntp::autograd {

/// Internal tape node: holds the forward value, the (lazily allocated)
/// gradient, edges to the input nodes, and the closure that pushes this
/// node's gradient into its inputs. Backward() clears the edges, the
/// closure and an interior node's gradient once the node is processed.
struct Node {
  tensor::Matrix value;
  tensor::Matrix grad;
  bool requires_grad = false;
  bool grad_allocated = false;
  std::vector<std::shared_ptr<Node>> inputs;
  /// Accumulates input gradients from `grad`. Null for leaves.
  std::function<void(Node&)> backward;

  /// Adds `g` into this node's gradient, allocating on first touch.
  void AccumulateGrad(const tensor::Matrix& g);
  /// Ensures `grad` is a zero matrix of the value's shape.
  void EnsureGrad();
};

/// A matrix value tracked on the autograd tape. Cheap to copy (shared
/// handle). Build computation graphs with the free functions in
/// autograd/ops.h, then call Backward() on a scalar (1x1) result.
class Variable {
 public:
  /// Detached empty variable.
  Variable() : node_(std::make_shared<Node>()) {}

  /// Wraps a value; set `requires_grad` for trainable parameters.
  explicit Variable(tensor::Matrix value, bool requires_grad = false);

  /// Internal: wraps an existing node (used by ops).
  explicit Variable(std::shared_ptr<Node> node) : node_(std::move(node)) {}

  const tensor::Matrix& value() const { return node_->value; }
  tensor::Matrix& mutable_value() { return node_->value; }

  /// Gradient accumulated by the last Backward(). Zero matrix when untouched.
  const tensor::Matrix& grad() const;

  /// Mutable gradient (gradient clipping and similar in-place transforms).
  tensor::Matrix& mutable_grad() {
    node_->EnsureGrad();
    return node_->grad;
  }

  bool requires_grad() const { return node_->requires_grad; }

  size_t rows() const { return node_->value.rows(); }
  size_t cols() const { return node_->value.cols(); }

  /// Clears the accumulated gradient (parameters between steps).
  void ZeroGrad();

  /// Reverse-mode backprop from this node. Precondition: 1x1 value.
  /// Seeds with d(out)/d(out) = 1.
  ///
  /// Consumes the graph, as PyTorch's default `retain_graph=False` does:
  /// after a node's closure has run, the node drops its closure, its
  /// inputs and, unless it is a leaf, its grad, so every intermediate that
  /// no outside handle holds is freed during the walk. Leaf grads (the
  /// parameters') are kept, and so are the values of nodes that outside
  /// handles hold (the loss, say). A second Backward on the same graph
  /// therefore reaches nothing but its root.
  void Backward() const;

  /// Backprop with an explicit seed gradient of this node's shape.
  /// Consumes the graph like Backward().
  void Backward(const tensor::Matrix& seed) const;

  const std::shared_ptr<Node>& node() const { return node_; }

 private:
  std::shared_ptr<Node> node_;
};

/// RAII scope that switches the calling thread's tape off. While one is
/// alive, every op in autograd/ops.h computes its value but records no
/// inputs and no backward closure (the result never requires grad, and
/// each intermediate is freed as soon as its handle drops), and Dropout is
/// the identity and draws no RNG whatever its `training` argument says.
/// That is eval mode with the tape bookkeeping skipped, so an encoder's
/// one Forward serves both training and inference. Scopes nest; each
/// restores the mode it found, also when an exception unwinds it. The
/// mode is thread-local: other threads keep recording.
class InferenceMode {
 public:
  InferenceMode() : previous_(active_) { active_ = true; }
  ~InferenceMode() { active_ = previous_; }
  InferenceMode(const InferenceMode&) = delete;
  InferenceMode& operator=(const InferenceMode&) = delete;

  /// Whether an InferenceMode scope is alive on the calling thread.
  static bool active() { return active_; }

 private:
  static inline thread_local bool active_ = false;
  bool previous_;
};

/// Convenience: a trainable parameter variable.
inline Variable Parameter(tensor::Matrix value) {
  return Variable(std::move(value), /*requires_grad=*/true);
}

/// Convenience: a non-trainable input variable.
inline Variable Constant(tensor::Matrix value) {
  return Variable(std::move(value), /*requires_grad=*/false);
}

}  // namespace ahntp::autograd

#endif  // AHNTP_AUTOGRAD_VARIABLE_H_
