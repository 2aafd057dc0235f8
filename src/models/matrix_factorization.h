#ifndef AHNTP_MODELS_MATRIX_FACTORIZATION_H_
#define AHNTP_MODELS_MATRIX_FACTORIZATION_H_

#include "models/encoder.h"

namespace ahntp::models {

/// Matrix-factorization trust embedding — the paper's "matrix-based"
/// related-work category (Section II-A.2), following Meo et al.: every user
/// carries two low-rank latent vectors, a trustor profile p_u (how the user
/// gives trust) and a trustee profile q_u (how the user receives it),
/// learned end-to-end from the observed trust pairs. The encoder emits
/// [P || Q]; the shared pairwise head scores pairs, so the comparison
/// protocol matches all other models. Pure ID embeddings — no features, no
/// structure operator — which is exactly the cold-start weakness the paper
/// ascribes to this category.
class MatrixFactorization : public Encoder {
 public:
  explicit MatrixFactorization(const ModelInputs& inputs);

  autograd::Variable EncodeUsers() override;
  size_t embedding_dim() const override { return 2 * rank_; }
  std::string name() const override { return "MF"; }
  std::vector<autograd::Variable> Parameters() const override {
    return {trustor_, trustee_};
  }

 private:
  size_t rank_;
  autograd::Variable trustor_;  // P: n x rank
  autograd::Variable trustee_;  // Q: n x rank
};

}  // namespace ahntp::models

#endif  // AHNTP_MODELS_MATRIX_FACTORIZATION_H_
