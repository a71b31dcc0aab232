#include "nn/ops.h"

#include <algorithm>
#include <cmath>

#include "nn/gemm.h"
#include "util/buffer_pool.h"
#include "util/check.h"

namespace delrec::nn {
namespace {

util::BufferPool& Pool() { return util::BufferPool::Global(); }

// Tanh-approximation GELU constants, shared by GeluRows and Gelu's backward.
constexpr float kSqrt2OverPi = 0.7978845608f;
constexpr float kCoeff = 0.044715f;

using SharedBuffer = std::shared_ptr<std::vector<float>>;

bool AnyRequiresGrad(const std::vector<Tensor>& tensors) {
  if (!GradModeEnabled()) return false;
  for (const Tensor& t : tensors) {
    if (t.defined() && t.requires_grad()) return true;
  }
  return false;
}

// Builds a tape node. If no parent requires gradients, returns a plain leaf.
Tensor MakeNode(std::vector<int64_t> shape, std::vector<float> data,
                std::vector<Tensor> parents,
                std::function<void(TensorImpl&)> backward_fn) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = std::move(data);
  if (AnyRequiresGrad(parents)) {
    impl->requires_grad = true;
    impl->parents = std::move(parents);
    impl->backward_fn = std::move(backward_fn);
  }
  return Tensor::FromImpl(std::move(impl));
}

// The dense GEMM kernels (blocked microkernels + thread partitioning) live
// in nn/gemm.{h,cc}; MatMul below calls GemmNN/GemmNT/GemmTN directly.

using UnaryForward = float (*)(float);

Tensor ElementwiseBinary(const Tensor& a, const Tensor& b, float sign_b,
                         bool multiply) {
  DELREC_CHECK(a.shape() == b.shape())
      << a.ShapeString() << " vs " << b.ShapeString();
  std::vector<float> out = Pool().Acquire(a.size());
  const auto& av = a.data();
  const auto& bv = b.data();
  if (multiply) {
    for (int64_t i = 0; i < a.size(); ++i) out[i] = av[i] * bv[i];
  } else {
    for (int64_t i = 0; i < a.size(); ++i) out[i] = av[i] + sign_b * bv[i];
  }
  Tensor a_copy = a;
  Tensor b_copy = b;
  return MakeNode(
      a.shape(), std::move(out), {a, b},
      [a_copy, b_copy, sign_b, multiply](TensorImpl& self) mutable {
        const auto& g = self.grad;
        if (a_copy.requires_grad()) {
          auto& ga = a_copy.grad();
          if (multiply) {
            const auto& bv = b_copy.data();
            for (size_t i = 0; i < g.size(); ++i) ga[i] += g[i] * bv[i];
          } else {
            for (size_t i = 0; i < g.size(); ++i) ga[i] += g[i];
          }
        }
        if (b_copy.requires_grad()) {
          auto& gb = b_copy.grad();
          if (multiply) {
            const auto& av = a_copy.data();
            for (size_t i = 0; i < g.size(); ++i) gb[i] += g[i] * av[i];
          } else {
            for (size_t i = 0; i < g.size(); ++i) gb[i] += sign_b * g[i];
          }
        }
      });
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, +1.0f, /*multiply=*/false);
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, -1.0f, /*multiply=*/false);
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, 0.0f, /*multiply=*/true);
}

Tensor AddScalar(const Tensor& a, float s) {
  std::vector<float> out = Pool().AcquireCopy(a.data());
  for (float& v : out) v += s;
  Tensor a_copy = a;
  return MakeNode(a.shape(), std::move(out), {a},
                  [a_copy](TensorImpl& self) mutable {
                    if (!a_copy.requires_grad()) return;
                    auto& ga = a_copy.grad();
                    for (size_t i = 0; i < self.grad.size(); ++i) {
                      ga[i] += self.grad[i];
                    }
                  });
}

Tensor MulScalar(const Tensor& a, float s) {
  std::vector<float> out = Pool().AcquireCopy(a.data());
  for (float& v : out) v *= s;
  Tensor a_copy = a;
  return MakeNode(a.shape(), std::move(out), {a},
                  [a_copy, s](TensorImpl& self) mutable {
                    if (!a_copy.requires_grad()) return;
                    auto& ga = a_copy.grad();
                    for (size_t i = 0; i < self.grad.size(); ++i) {
                      ga[i] += s * self.grad[i];
                    }
                  });
}

Tensor AddN(const std::vector<Tensor>& tensors) {
  DELREC_CHECK(!tensors.empty());
  std::vector<float> out = Pool().AcquireCopy(tensors[0].data());
  for (size_t t = 1; t < tensors.size(); ++t) {
    DELREC_CHECK(tensors[t].shape() == tensors[0].shape());
    const auto& v = tensors[t].data();
    for (size_t i = 0; i < out.size(); ++i) out[i] += v[i];
  }
  std::vector<Tensor> parents = tensors;
  return MakeNode(tensors[0].shape(), std::move(out), tensors,
                  [parents](TensorImpl& self) mutable {
                    for (Tensor& p : parents) {
                      if (!p.requires_grad()) continue;
                      auto& gp = p.grad();
                      for (size_t i = 0; i < self.grad.size(); ++i) {
                        gp[i] += self.grad[i];
                      }
                    }
                  });
}

Tensor Cos(const Tensor& x) {
  const auto& xv = x.data();
  std::vector<float> out = Pool().Acquire(xv.size());
  for (size_t i = 0; i < xv.size(); ++i) out[i] = std::cos(xv[i]);
  Tensor x_copy = x;
  return MakeNode(x.shape(), std::move(out), {x},
                  [x_copy](TensorImpl& self) mutable {
                    if (!x_copy.requires_grad()) return;
                    auto& gx = x_copy.grad();
                    const auto& xv = x_copy.data();
                    for (size_t i = 0; i < self.grad.size(); ++i) {
                      gx[i] -= self.grad[i] * std::sin(xv[i]);
                    }
                  });
}

Tensor MulScalarTensor(const Tensor& x, const Tensor& s) {
  DELREC_CHECK_EQ(s.size(), 1);
  const float scale = s.data()[0];
  std::vector<float> out = Pool().AcquireCopy(x.data());
  for (float& v : out) v *= scale;
  Tensor x_copy = x;
  Tensor s_copy = s;
  return MakeNode(x.shape(), std::move(out), {x, s},
                  [x_copy, s_copy](TensorImpl& self) mutable {
                    const float scale = s_copy.data()[0];
                    if (x_copy.requires_grad()) {
                      auto& gx = x_copy.grad();
                      for (size_t i = 0; i < self.grad.size(); ++i) {
                        gx[i] += self.grad[i] * scale;
                      }
                    }
                    if (s_copy.requires_grad()) {
                      const auto& xv = x_copy.data();
                      float total = 0.0f;
                      for (size_t i = 0; i < self.grad.size(); ++i) {
                        total += self.grad[i] * xv[i];
                      }
                      s_copy.grad()[0] += total;
                    }
                  });
}

Tensor Relu(const Tensor& x) {
  std::vector<float> out = Pool().AcquireCopy(x.data());
  for (float& v : out) v = v > 0.0f ? v : 0.0f;
  Tensor x_copy = x;
  return MakeNode(x.shape(), std::move(out), {x},
                  [x_copy](TensorImpl& self) mutable {
                    if (!x_copy.requires_grad()) return;
                    auto& gx = x_copy.grad();
                    const auto& xv = x_copy.data();
                    for (size_t i = 0; i < self.grad.size(); ++i) {
                      if (xv[i] > 0.0f) gx[i] += self.grad[i];
                    }
                  });
}

void GeluRows(const float* x, int64_t count, float* out) {
  for (int64_t i = 0; i < count; ++i) {
    const float v = x[i];
    const float inner = kSqrt2OverPi * (v + kCoeff * v * v * v);
    out[i] = 0.5f * v * (1.0f + std::tanh(inner));
  }
}

Tensor Gelu(const Tensor& x) {
  const auto& xv = x.data();
  std::vector<float> out = Pool().Acquire(xv.size());
  GeluRows(xv.data(), static_cast<int64_t>(xv.size()), out.data());
  Tensor x_copy = x;
  return MakeNode(
      x.shape(), std::move(out), {x}, [x_copy](TensorImpl& self) mutable {
        if (!x_copy.requires_grad()) return;
        auto& gx = x_copy.grad();
        const auto& xv = x_copy.data();
        for (size_t i = 0; i < self.grad.size(); ++i) {
          const float v = xv[i];
          const float inner = kSqrt2OverPi * (v + kCoeff * v * v * v);
          const float t = std::tanh(inner);
          const float sech2 = 1.0f - t * t;
          const float d_inner = kSqrt2OverPi * (1.0f + 3.0f * kCoeff * v * v);
          const float d = 0.5f * (1.0f + t) + 0.5f * v * sech2 * d_inner;
          gx[i] += self.grad[i] * d;
        }
      });
}

Tensor Sigmoid(const Tensor& x) {
  const auto& xv = x.data();
  std::vector<float> out = Pool().Acquire(xv.size());
  for (size_t i = 0; i < xv.size(); ++i) {
    out[i] = 1.0f / (1.0f + std::exp(-xv[i]));
  }
  Tensor x_copy = x;
  // Capture forward values: σ' = σ(1-σ). Pooled shared buffer so the copy
  // held by the backward closure recycles on tape release.
  SharedBuffer saved = Pool().AcquireSharedCopy(out);
  return MakeNode(x.shape(), std::move(out), {x},
                  [x_copy, saved](TensorImpl& self) mutable {
                    if (!x_copy.requires_grad()) return;
                    auto& gx = x_copy.grad();
                    const auto& s = *saved;
                    for (size_t i = 0; i < self.grad.size(); ++i) {
                      gx[i] += self.grad[i] * s[i] * (1.0f - s[i]);
                    }
                  });
}

Tensor Tanh(const Tensor& x) {
  const auto& xv = x.data();
  std::vector<float> out = Pool().Acquire(xv.size());
  for (size_t i = 0; i < xv.size(); ++i) out[i] = std::tanh(xv[i]);
  Tensor x_copy = x;
  SharedBuffer saved = Pool().AcquireSharedCopy(out);
  return MakeNode(x.shape(), std::move(out), {x},
                  [x_copy, saved](TensorImpl& self) mutable {
                    if (!x_copy.requires_grad()) return;
                    auto& gx = x_copy.grad();
                    const auto& s = *saved;
                    for (size_t i = 0; i < self.grad.size(); ++i) {
                      gx[i] += self.grad[i] * (1.0f - s[i] * s[i]);
                    }
                  });
}

Tensor Dropout(const Tensor& x, float p, util::Rng& rng, bool training) {
  if (!training || p <= 0.0f) return x;
  DELREC_CHECK_LT(p, 1.0f);
  const float scale = 1.0f / (1.0f - p);
  SharedBuffer mask = Pool().AcquireShared(x.size());
  for (float& m : *mask) m = rng.Bernoulli(p) ? 0.0f : scale;
  const auto& xv = x.data();
  const auto& mv = *mask;
  std::vector<float> out = Pool().Acquire(xv.size());
  for (size_t i = 0; i < xv.size(); ++i) out[i] = xv[i] * mv[i];
  Tensor x_copy = x;
  return MakeNode(x.shape(), std::move(out), {x},
                  [x_copy, mask](TensorImpl& self) mutable {
                    if (!x_copy.requires_grad()) return;
                    auto& gx = x_copy.grad();
                    const auto& mv = *mask;
                    for (size_t i = 0; i < self.grad.size(); ++i) {
                      gx[i] += self.grad[i] * mv[i];
                    }
                  });
}

Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  DELREC_CHECK(!(trans_a && trans_b)) << "MatMul: TT variant unsupported";
  DELREC_CHECK_EQ(a.ndim(), 2);
  DELREC_CHECK_EQ(b.ndim(), 2);
  const int64_t m = trans_a ? a.dim(1) : a.dim(0);
  const int64_t k = trans_a ? a.dim(0) : a.dim(1);
  const int64_t k2 = trans_b ? b.dim(1) : b.dim(0);
  const int64_t n = trans_b ? b.dim(0) : b.dim(1);
  DELREC_CHECK_EQ(k, k2) << "MatMul inner dims: " << a.ShapeString() << " · "
                         << b.ShapeString();
  std::vector<float> out = Pool().Acquire(m * n);
  const float* av = a.data().data();
  const float* bv = b.data().data();
  if (!trans_a && !trans_b) {
    GemmNN(av, bv, out.data(), m, n, k, false);
  } else if (!trans_a && trans_b) {
    GemmNT(av, bv, out.data(), m, n, k, false);
  } else {
    GemmTN(av, bv, out.data(), m, n, k, false);
  }
  Tensor a_copy = a;
  Tensor b_copy = b;
  return MakeNode(
      {m, n}, std::move(out), {a, b},
      [a_copy, b_copy, trans_a, trans_b, m, n, k](TensorImpl& self) mutable {
        const float* g = self.grad.data();
        if (a_copy.requires_grad()) {
          float* ga = a_copy.grad().data();
          const float* bv = b_copy.data().data();
          if (!trans_a && !trans_b) {
            // dA (m,k) += dC (m,n) · B^T; B is (k,n).
            GemmNT(g, bv, ga, m, k, n, true);
          } else if (!trans_a && trans_b) {
            // C = A·B^T with B (n,k): dA (m,k) += dC (m,n) · B (n,k).
            GemmNN(g, bv, ga, m, k, n, true);
          } else {
            // C = A^T·B with A (k,m): dA (k,m) += B (k,n) · dC^T (n,m).
            GemmNT(bv, g, ga, k, m, n, true);
          }
        }
        if (b_copy.requires_grad()) {
          float* gb = b_copy.grad().data();
          const float* av = a_copy.data().data();
          if (!trans_a && !trans_b) {
            // dB (k,n) += A^T (k,m) · dC (m,n); A stored (m,k).
            GemmTN(av, g, gb, k, n, m, true);
          } else if (!trans_a && trans_b) {
            // C = A·B^T: dB (n,k) += dC^T (n,m) · A (m,k).
            GemmTN(g, av, gb, n, k, m, true);
          } else {
            // C = A^T·B: dB (k,n) += A (k,m) · dC (m,n).
            GemmNN(av, g, gb, k, n, m, true);
          }
        }
      });
}

void AddBiasRows(float* x, int64_t rows, int64_t cols, const float* bias) {
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) x[i * cols + j] += bias[j];
  }
}

Tensor AddBias(const Tensor& x, const Tensor& bias) {
  DELREC_CHECK_EQ(x.ndim(), 2);
  DELREC_CHECK_EQ(bias.size(), x.dim(1));
  const int64_t n = x.dim(0);
  const int64_t d = x.dim(1);
  std::vector<float> out = Pool().AcquireCopy(x.data());
  AddBiasRows(out.data(), n, d, bias.data().data());
  Tensor x_copy = x;
  Tensor b_copy = bias;
  return MakeNode(x.shape(), std::move(out), {x, bias},
                  [x_copy, b_copy, n, d](TensorImpl& self) mutable {
                    if (x_copy.requires_grad()) {
                      auto& gx = x_copy.grad();
                      for (size_t i = 0; i < self.grad.size(); ++i) {
                        gx[i] += self.grad[i];
                      }
                    }
                    if (b_copy.requires_grad()) {
                      auto& gb = b_copy.grad();
                      for (int64_t i = 0; i < n; ++i) {
                        for (int64_t j = 0; j < d; ++j) {
                          gb[j] += self.grad[i * d + j];
                        }
                      }
                    }
                  });
}

Tensor Rows(const Tensor& table, const std::vector<int64_t>& indices) {
  DELREC_CHECK_EQ(table.ndim(), 2);
  const int64_t v = table.dim(0);
  const int64_t d = table.dim(1);
  std::vector<float> out = Pool().Acquire(indices.size() * d);
  const auto& tv = table.data();
  for (size_t i = 0; i < indices.size(); ++i) {
    DELREC_CHECK_GE(indices[i], 0);
    DELREC_CHECK_LT(indices[i], v);
    std::copy(tv.begin() + indices[i] * d, tv.begin() + (indices[i] + 1) * d,
              out.begin() + i * d);
  }
  Tensor table_copy = table;
  std::vector<int64_t> idx = indices;
  return MakeNode({static_cast<int64_t>(indices.size()), d}, std::move(out),
                  {table},
                  [table_copy, idx, d](TensorImpl& self) mutable {
                    if (!table_copy.requires_grad()) return;
                    auto& gt = table_copy.grad();
                    for (size_t i = 0; i < idx.size(); ++i) {
                      for (int64_t j = 0; j < d; ++j) {
                        gt[idx[i] * d + j] += self.grad[i * d + j];
                      }
                    }
                  });
}

Tensor ScaleCols(const Tensor& x, const Tensor& scales) {
  DELREC_CHECK_EQ(x.ndim(), 2);
  const int64_t n = x.dim(0);
  const int64_t d = x.dim(1);
  DELREC_CHECK_EQ(scales.size(), d);
  std::vector<float> out = Pool().Acquire(n * d);
  const auto& xv = x.data();
  const auto& sv = scales.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < d; ++j) out[i * d + j] = xv[i * d + j] * sv[j];
  }
  Tensor x_copy = x;
  Tensor s_copy = scales;
  return MakeNode(x.shape(), std::move(out), {x, scales},
                  [x_copy, s_copy, n, d](TensorImpl& self) mutable {
                    if (x_copy.requires_grad()) {
                      auto& gx = x_copy.grad();
                      const auto& sv = s_copy.data();
                      for (int64_t i = 0; i < n; ++i) {
                        for (int64_t j = 0; j < d; ++j) {
                          gx[i * d + j] += self.grad[i * d + j] * sv[j];
                        }
                      }
                    }
                    if (s_copy.requires_grad()) {
                      auto& gs = s_copy.grad();
                      const auto& xv = x_copy.data();
                      for (int64_t i = 0; i < n; ++i) {
                        for (int64_t j = 0; j < d; ++j) {
                          gs[j] += self.grad[i * d + j] * xv[i * d + j];
                        }
                      }
                    }
                  });
}

Tensor SliceRows(const Tensor& x, int64_t start, int64_t count) {
  DELREC_CHECK_EQ(x.ndim(), 2);
  DELREC_CHECK_GE(start, 0);
  DELREC_CHECK_LE(start + count, x.dim(0));
  const int64_t d = x.dim(1);
  std::vector<float> out = Pool().Acquire(count * d);
  std::copy(x.data().begin() + start * d,
            x.data().begin() + (start + count) * d, out.begin());
  Tensor x_copy = x;
  return MakeNode({count, d}, std::move(out), {x},
                  [x_copy, start, d](TensorImpl& self) mutable {
                    if (!x_copy.requires_grad()) return;
                    auto& gx = x_copy.grad();
                    for (size_t i = 0; i < self.grad.size(); ++i) {
                      gx[start * d + i] += self.grad[i];
                    }
                  });
}

Tensor SliceCols(const Tensor& x, int64_t start, int64_t count) {
  DELREC_CHECK_EQ(x.ndim(), 2);
  DELREC_CHECK_GE(start, 0);
  DELREC_CHECK_LE(start + count, x.dim(1));
  const int64_t n = x.dim(0);
  const int64_t d = x.dim(1);
  std::vector<float> out = Pool().Acquire(n * count);
  const auto& xv = x.data();
  for (int64_t i = 0; i < n; ++i) {
    std::copy(xv.begin() + i * d + start, xv.begin() + i * d + start + count,
              out.begin() + i * count);
  }
  Tensor x_copy = x;
  return MakeNode({n, count}, std::move(out), {x},
                  [x_copy, start, n, d, count](TensorImpl& self) mutable {
                    if (!x_copy.requires_grad()) return;
                    auto& gx = x_copy.grad();
                    for (int64_t i = 0; i < n; ++i) {
                      for (int64_t j = 0; j < count; ++j) {
                        gx[i * d + start + j] += self.grad[i * count + j];
                      }
                    }
                  });
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  DELREC_CHECK(!parts.empty());
  const int64_t d = parts[0].dim(1);
  int64_t total = 0;
  for (const Tensor& p : parts) {
    DELREC_CHECK_EQ(p.ndim(), 2);
    DELREC_CHECK_EQ(p.dim(1), d);
    total += p.dim(0);
  }
  std::vector<float> out = Pool().Acquire(total * d);
  auto write = out.begin();
  for (const Tensor& p : parts) {
    write = std::copy(p.data().begin(), p.data().end(), write);
  }
  std::vector<Tensor> parents = parts;
  return MakeNode({total, d}, std::move(out), parts,
                  [parents](TensorImpl& self) mutable {
                    size_t offset = 0;
                    for (Tensor& p : parents) {
                      const size_t len = p.data().size();
                      if (p.requires_grad()) {
                        auto& gp = p.grad();
                        for (size_t i = 0; i < len; ++i) {
                          gp[i] += self.grad[offset + i];
                        }
                      }
                      offset += len;
                    }
                  });
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  DELREC_CHECK(!parts.empty());
  const int64_t n = parts[0].dim(0);
  int64_t total = 0;
  for (const Tensor& p : parts) {
    DELREC_CHECK_EQ(p.ndim(), 2);
    DELREC_CHECK_EQ(p.dim(0), n);
    total += p.dim(1);
  }
  std::vector<float> out = Pool().Acquire(n * total);
  int64_t col_offset = 0;
  for (const Tensor& p : parts) {
    const int64_t d = p.dim(1);
    const auto& pv = p.data();
    for (int64_t i = 0; i < n; ++i) {
      std::copy(pv.begin() + i * d, pv.begin() + (i + 1) * d,
                out.begin() + i * total + col_offset);
    }
    col_offset += d;
  }
  std::vector<Tensor> parents = parts;
  return MakeNode({n, total}, std::move(out), parts,
                  [parents, n, total](TensorImpl& self) mutable {
                    int64_t col_offset = 0;
                    for (Tensor& p : parents) {
                      const int64_t d = p.dim(1);
                      if (p.requires_grad()) {
                        auto& gp = p.grad();
                        for (int64_t i = 0; i < n; ++i) {
                          for (int64_t j = 0; j < d; ++j) {
                            gp[i * d + j] +=
                                self.grad[i * total + col_offset + j];
                          }
                        }
                      }
                      col_offset += d;
                    }
                  });
}

Tensor Reshape(const Tensor& x, std::vector<int64_t> shape) {
  DELREC_CHECK_EQ(NumElements(shape), x.size());
  std::vector<float> out = Pool().AcquireCopy(x.data());
  Tensor x_copy = x;
  return MakeNode(std::move(shape), std::move(out), {x},
                  [x_copy](TensorImpl& self) mutable {
                    if (!x_copy.requires_grad()) return;
                    auto& gx = x_copy.grad();
                    for (size_t i = 0; i < self.grad.size(); ++i) {
                      gx[i] += self.grad[i];
                    }
                  });
}

Tensor Transpose(const Tensor& x) {
  DELREC_CHECK_EQ(x.ndim(), 2);
  const int64_t m = x.dim(0);
  const int64_t n = x.dim(1);
  std::vector<float> out = Pool().Acquire(m * n);
  const auto& xv = x.data();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) out[j * m + i] = xv[i * n + j];
  }
  Tensor x_copy = x;
  return MakeNode({n, m}, std::move(out), {x},
                  [x_copy, m, n](TensorImpl& self) mutable {
                    if (!x_copy.requires_grad()) return;
                    auto& gx = x_copy.grad();
                    for (int64_t i = 0; i < m; ++i) {
                      for (int64_t j = 0; j < n; ++j) {
                        gx[i * n + j] += self.grad[j * m + i];
                      }
                    }
                  });
}

Tensor Mean(const Tensor& x) {
  const int64_t n = x.size();
  DELREC_CHECK_GT(n, 0);
  float total = 0.0f;
  for (float v : x.data()) total += v;
  Tensor x_copy = x;
  return MakeNode({1}, {total / static_cast<float>(n)}, {x},
                  [x_copy, n](TensorImpl& self) mutable {
                    if (!x_copy.requires_grad()) return;
                    auto& gx = x_copy.grad();
                    const float g = self.grad[0] / static_cast<float>(n);
                    for (float& v : gx) v += g;
                  });
}

Tensor Sum(const Tensor& x) {
  float total = 0.0f;
  for (float v : x.data()) total += v;
  Tensor x_copy = x;
  return MakeNode({1}, {total}, {x}, [x_copy](TensorImpl& self) mutable {
    if (!x_copy.requires_grad()) return;
    auto& gx = x_copy.grad();
    for (float& v : gx) v += self.grad[0];
  });
}

Tensor MeanRows(const Tensor& x) {
  DELREC_CHECK_EQ(x.ndim(), 2);
  const int64_t n = x.dim(0);
  const int64_t d = x.dim(1);
  DELREC_CHECK_GT(n, 0);
  std::vector<float> out = Pool().AcquireZeroed(d);
  const auto& xv = x.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < d; ++j) out[j] += xv[i * d + j];
  }
  for (float& v : out) v /= static_cast<float>(n);
  Tensor x_copy = x;
  return MakeNode({1, d}, std::move(out), {x},
                  [x_copy, n, d](TensorImpl& self) mutable {
                    if (!x_copy.requires_grad()) return;
                    auto& gx = x_copy.grad();
                    for (int64_t i = 0; i < n; ++i) {
                      for (int64_t j = 0; j < d; ++j) {
                        gx[i * d + j] += self.grad[j] / static_cast<float>(n);
                      }
                    }
                  });
}

Tensor MaxPoolRows(const Tensor& x) {
  DELREC_CHECK_EQ(x.ndim(), 2);
  const int64_t n = x.dim(0);
  const int64_t d = x.dim(1);
  DELREC_CHECK_GT(n, 0);
  std::vector<float> out = Pool().Acquire(d);
  std::vector<int64_t> argmax(d, 0);
  const auto& xv = x.data();
  for (int64_t j = 0; j < d; ++j) {
    float best = xv[j];
    int64_t best_i = 0;
    for (int64_t i = 1; i < n; ++i) {
      if (xv[i * d + j] > best) {
        best = xv[i * d + j];
        best_i = i;
      }
    }
    out[j] = best;
    argmax[j] = best_i;
  }
  Tensor x_copy = x;
  return MakeNode({1, d}, std::move(out), {x},
                  [x_copy, argmax, d](TensorImpl& self) mutable {
                    if (!x_copy.requires_grad()) return;
                    auto& gx = x_copy.grad();
                    for (int64_t j = 0; j < d; ++j) {
                      gx[argmax[j] * d + j] += self.grad[j];
                    }
                  });
}

void SoftmaxRows(const float* x, int64_t rows, int64_t cols, float* out) {
  for (int64_t i = 0; i < rows; ++i) {
    const float* row = x + i * cols;
    float* orow = out + i * cols;
    float mx = row[0];
    for (int64_t j = 1; j < cols; ++j) mx = std::max(mx, row[j]);
    float denom = 0.0f;
    for (int64_t j = 0; j < cols; ++j) {
      orow[j] = std::exp(row[j] - mx);
      denom += orow[j];
    }
    const float inv = 1.0f / denom;
    for (int64_t j = 0; j < cols; ++j) orow[j] *= inv;
  }
}

Tensor Softmax(const Tensor& x) {
  DELREC_CHECK_EQ(x.ndim(), 2);
  const int64_t n = x.dim(0);
  const int64_t c = x.dim(1);
  std::vector<float> out = Pool().Acquire(n * c);
  SoftmaxRows(x.data().data(), n, c, out.data());
  Tensor x_copy = x;
  SharedBuffer saved = Pool().AcquireSharedCopy(out);
  return MakeNode(
      x.shape(), std::move(out), {x},
      [x_copy, saved, n, c](TensorImpl& self) mutable {
        if (!x_copy.requires_grad()) return;
        auto& gx = x_copy.grad();
        for (int64_t i = 0; i < n; ++i) {
          const float* s = saved->data() + i * c;
          const float* g = self.grad.data() + i * c;
          float dot = 0.0f;
          for (int64_t j = 0; j < c; ++j) dot += s[j] * g[j];
          for (int64_t j = 0; j < c; ++j) {
            gx[i * c + j] += s[j] * (g[j] - dot);
          }
        }
      });
}

Tensor LogSoftmax(const Tensor& x) {
  DELREC_CHECK_EQ(x.ndim(), 2);
  const int64_t n = x.dim(0);
  const int64_t c = x.dim(1);
  SharedBuffer softmax = Pool().AcquireShared(n * c);
  SoftmaxRows(x.data().data(), n, c, softmax->data());
  std::vector<float> out = Pool().Acquire(n * c);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = std::log(std::max((*softmax)[i], 1e-30f));
  }
  Tensor x_copy = x;
  return MakeNode(
      x.shape(), std::move(out), {x},
      [x_copy, softmax, n, c](TensorImpl& self) mutable {
        if (!x_copy.requires_grad()) return;
        auto& gx = x_copy.grad();
        for (int64_t i = 0; i < n; ++i) {
          const float* s = softmax->data() + i * c;
          const float* g = self.grad.data() + i * c;
          float gsum = 0.0f;
          for (int64_t j = 0; j < c; ++j) gsum += g[j];
          for (int64_t j = 0; j < c; ++j) {
            gx[i * c + j] += g[j] - s[j] * gsum;
          }
        }
      });
}

Tensor CrossEntropyWithLogits(const Tensor& logits,
                              const std::vector<int64_t>& targets) {
  DELREC_CHECK_EQ(logits.ndim(), 2);
  const int64_t n = logits.dim(0);
  const int64_t c = logits.dim(1);
  DELREC_CHECK_EQ(static_cast<int64_t>(targets.size()), n);
  SharedBuffer softmax = Pool().AcquireShared(n * c);
  SoftmaxRows(logits.data().data(), n, c, softmax->data());
  float loss = 0.0f;
  int64_t active = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (targets[i] < 0) continue;  // Masked row.
    DELREC_CHECK_LT(targets[i], c);
    loss -= std::log(std::max((*softmax)[i * c + targets[i]], 1e-30f));
    ++active;
  }
  DELREC_CHECK_GT(active, 0) << "all rows masked in CrossEntropyWithLogits";
  loss /= static_cast<float>(active);
  Tensor logits_copy = logits;
  std::vector<int64_t> tgt = targets;
  return MakeNode(
      {1}, {loss}, {logits},
      [logits_copy, tgt, softmax, n, c, active](TensorImpl& self) mutable {
        if (!logits_copy.requires_grad()) return;
        auto& gx = logits_copy.grad();
        const float g = self.grad[0] / static_cast<float>(active);
        for (int64_t i = 0; i < n; ++i) {
          if (tgt[i] < 0) continue;
          const float* s = softmax->data() + i * c;
          for (int64_t j = 0; j < c; ++j) {
            gx[i * c + j] += g * (s[j] - (j == tgt[i] ? 1.0f : 0.0f));
          }
        }
      });
}

void LayerNormRows(const float* x, int64_t rows, int64_t cols,
                   const float* gamma, const float* beta, float epsilon,
                   float* out, float* normalized, float* inv_std) {
  for (int64_t i = 0; i < rows; ++i) {
    const float* row = x + i * cols;
    float mean = 0.0f;
    for (int64_t j = 0; j < cols; ++j) mean += row[j];
    mean /= static_cast<float>(cols);
    float var = 0.0f;
    for (int64_t j = 0; j < cols; ++j) {
      const float c = row[j] - mean;
      var += c * c;
    }
    var /= static_cast<float>(cols);
    const float istd = 1.0f / std::sqrt(var + epsilon);
    if (inv_std != nullptr) inv_std[i] = istd;
    float* orow = out + i * cols;
    float* nrow = normalized != nullptr ? normalized + i * cols : nullptr;
    for (int64_t j = 0; j < cols; ++j) {
      const float nrm = (row[j] - mean) * istd;
      if (nrow != nullptr) nrow[j] = nrm;
      orow[j] = nrm * gamma[j] + beta[j];
    }
  }
}

Tensor LayerNormOp(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                   float epsilon) {
  DELREC_CHECK_EQ(x.ndim(), 2);
  const int64_t n = x.dim(0);
  const int64_t d = x.dim(1);
  DELREC_CHECK_EQ(gamma.size(), d);
  DELREC_CHECK_EQ(beta.size(), d);
  SharedBuffer normalized = Pool().AcquireShared(n * d);
  SharedBuffer inv_std = Pool().AcquireShared(n);
  std::vector<float> out = Pool().Acquire(n * d);
  LayerNormRows(x.data().data(), n, d, gamma.data().data(),
                beta.data().data(), epsilon, out.data(), normalized->data(),
                inv_std->data());
  Tensor x_copy = x;
  Tensor g_copy = gamma;
  Tensor b_copy = beta;
  return MakeNode(
      x.shape(), std::move(out), {x, gamma, beta},
      [x_copy, g_copy, b_copy, normalized, inv_std, n,
       d](TensorImpl& self) mutable {
        const auto& gv = g_copy.data();
        if (g_copy.requires_grad()) {
          auto& gg = g_copy.grad();
          for (int64_t i = 0; i < n; ++i) {
            for (int64_t j = 0; j < d; ++j) {
              gg[j] += self.grad[i * d + j] * (*normalized)[i * d + j];
            }
          }
        }
        if (b_copy.requires_grad()) {
          auto& gb = b_copy.grad();
          for (int64_t i = 0; i < n; ++i) {
            for (int64_t j = 0; j < d; ++j) gb[j] += self.grad[i * d + j];
          }
        }
        if (x_copy.requires_grad()) {
          auto& gx = x_copy.grad();
          for (int64_t i = 0; i < n; ++i) {
            const float* g = self.grad.data() + i * d;
            const float* nrm = normalized->data() + i * d;
            // dL/dnorm_j = g_j * gamma_j; standard layernorm backward.
            float sum_dn = 0.0f;
            float sum_dn_nrm = 0.0f;
            for (int64_t j = 0; j < d; ++j) {
              const float dn = g[j] * gv[j];
              sum_dn += dn;
              sum_dn_nrm += dn * nrm[j];
            }
            const float inv_d = 1.0f / static_cast<float>(d);
            for (int64_t j = 0; j < d; ++j) {
              const float dn = g[j] * gv[j];
              gx[i * d + j] += (*inv_std)[i] * (dn - inv_d * sum_dn -
                                                inv_d * nrm[j] * sum_dn_nrm);
            }
          }
        }
      });
}

Tensor HorizontalConv(const Tensor& embeddings, const Tensor& filters,
                      const Tensor& bias, int64_t height) {
  DELREC_CHECK_EQ(embeddings.ndim(), 2);
  DELREC_CHECK_EQ(filters.ndim(), 2);
  const int64_t t = embeddings.dim(0);
  const int64_t d = embeddings.dim(1);
  const int64_t f = filters.dim(0);
  DELREC_CHECK_EQ(filters.dim(1), height * d);
  DELREC_CHECK_EQ(bias.size(), f);
  DELREC_CHECK_GE(t, height);
  const int64_t windows = t - height + 1;
  std::vector<float> out = Pool().Acquire(windows * f);
  const auto& ev = embeddings.data();
  const auto& fv = filters.data();
  const auto& bv = bias.data();
  for (int64_t w = 0; w < windows; ++w) {
    const float* window = ev.data() + w * d;  // h*d contiguous values.
    for (int64_t q = 0; q < f; ++q) {
      const float* filter = fv.data() + q * height * d;
      float dot = bv[q];
      for (int64_t p = 0; p < height * d; ++p) dot += window[p] * filter[p];
      out[w * f + q] = dot;
    }
  }
  Tensor e_copy = embeddings;
  Tensor f_copy = filters;
  Tensor b_copy = bias;
  return MakeNode(
      {windows, f}, std::move(out), {embeddings, filters, bias},
      [e_copy, f_copy, b_copy, height, windows, f, d](
          TensorImpl& self) mutable {
        const auto& ev = e_copy.data();
        const auto& fv = f_copy.data();
        for (int64_t w = 0; w < windows; ++w) {
          for (int64_t q = 0; q < f; ++q) {
            const float g = self.grad[w * f + q];
            if (g == 0.0f) continue;
            if (b_copy.requires_grad()) b_copy.grad()[q] += g;
            const float* filter = fv.data() + q * height * d;
            const float* window = ev.data() + w * d;
            if (e_copy.requires_grad()) {
              auto& ge = e_copy.grad();
              for (int64_t p = 0; p < height * d; ++p) {
                ge[w * d + p] += g * filter[p];
              }
            }
            if (f_copy.requires_grad()) {
              auto& gf = f_copy.grad();
              for (int64_t p = 0; p < height * d; ++p) {
                gf[q * height * d + p] += g * window[p];
              }
            }
          }
        }
      });
}

}  // namespace delrec::nn
