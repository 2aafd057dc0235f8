#include "autograd/variable.h"

#include <unordered_set>

#include "common/check.h"

namespace ahntp::autograd {

void Node::EnsureGrad() {
  if (!grad_allocated) {
    grad = tensor::Matrix(value.rows(), value.cols());
    grad_allocated = true;
  }
}

void Node::AccumulateGrad(const tensor::Matrix& g) {
  EnsureGrad();
  AHNTP_CHECK(g.rows() == value.rows() && g.cols() == value.cols())
      << "gradient shape " << g.rows() << "x" << g.cols()
      << " does not match value shape " << value.rows() << "x"
      << value.cols();
  grad += g;
}

Variable::Variable(tensor::Matrix value, bool requires_grad)
    : node_(std::make_shared<Node>()) {
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

const tensor::Matrix& Variable::grad() const {
  node_->EnsureGrad();
  return node_->grad;
}

void Variable::ZeroGrad() {
  node_->grad_allocated = false;
  node_->grad = tensor::Matrix();
}

namespace {

/// Iterative post-order DFS producing a topological order (inputs before
/// consumers). The order holds a reference to every node, so the walk owns
/// each one until it has processed it.
void TopologicalOrder(const std::shared_ptr<Node>& root,
                      std::vector<std::shared_ptr<Node>>* order) {
  std::unordered_set<Node*> visited;
  struct Frame {
    const std::shared_ptr<Node>* node;
    size_t next_input;
  };
  std::vector<Frame> stack;
  visited.insert(root.get());
  stack.push_back({&root, 0});
  while (!stack.empty()) {
    Frame& top = stack.back();
    Node& node = **top.node;
    if (top.next_input < node.inputs.size()) {
      const std::shared_ptr<Node>& child = node.inputs[top.next_input++];
      if (visited.insert(child.get()).second) {
        stack.push_back({&child, 0});
      }
    } else {
      order->push_back(*top.node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Variable::Backward() const {
  AHNTP_CHECK(rows() == 1 && cols() == 1)
      << "Backward() without a seed requires a scalar output; shape is "
      << rows() << "x" << cols();
  Backward(tensor::Matrix::Ones(1, 1));
}

void Variable::Backward(const tensor::Matrix& seed) const {
  std::vector<std::shared_ptr<Node>> order;
  TopologicalOrder(node_, &order);
  node_->AccumulateGrad(seed);
  // Reverse topological order: every consumer of a node runs before it, so
  // once a node's closure has run nothing reads its grad, inputs or
  // closure again. Dropping them (and the walk's reference) frees each
  // intermediate whose last handle was the tape, as the walk goes.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    std::shared_ptr<Node> node = std::move(*it);
    if (node->backward && node->grad_allocated) {
      node->backward(*node);
    }
    if (!node->inputs.empty()) {
      node->grad = tensor::Matrix();
      node->grad_allocated = false;
    }
    node->backward = nullptr;
    node->inputs.clear();
  }
}

}  // namespace ahntp::autograd
