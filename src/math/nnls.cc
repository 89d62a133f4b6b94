#include "math/nnls.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace uqp {

namespace {

/// One solve's working storage, carved out of one block of doubles (and
/// one of ints for the passive set) sized once per call: the column-scaled
/// matrix, the residual, the normal equations of the passive subproblem,
/// the column scales and the trial solution z. Nothing is allocated inside
/// the active-set loop.
struct Workspace {
  Workspace(int rows, int cols)
      : doubles(static_cast<size_t>(rows) * cols + rows +
                static_cast<size_t>(cols) * cols + 4 * static_cast<size_t>(cols)),
        ints(2 * static_cast<size_t>(cols)) {
    double* next = doubles.data();
    auto take = [&next](size_t count) {
      double* block = next;
      next += count;
      return block;
    };
    a = take(static_cast<size_t>(rows) * cols);
    resid = take(rows);
    g_mat = take(static_cast<size_t>(cols) * cols);
    col_scale = take(cols);
    g_rhs = take(cols);
    sol = take(cols);
    z = take(cols);
    passive = ints.data();
    in_passive = ints.data() + cols;
  }

  std::vector<double> doubles;
  std::vector<int> ints;
  double* a;
  double* resid;
  double* g_mat;
  double* col_scale;
  double* g_rhs;
  double* sol;
  double* z;
  /// The passive set in insertion order (free columns first), and a 0/1
  /// membership flag per column.
  int* passive;
  int* in_passive;
  int num_passive = 0;
};

/// Solves the unconstrained LS restricted to the passive columns via normal
/// equations with a tiny ridge for numerical safety (column counts here are
/// at most 4, so this is robust enough in practice). Writes ws->z; leaves
/// it untouched when the passive set is empty.
bool SolveSubproblem(int rows, int cols, const std::vector<double>& y,
                     Workspace* ws) {
  const int k = ws->num_passive;
  if (k == 0) return true;
  const double* a = ws->a;
  const int* passive = ws->passive;
  double* g_mat = ws->g_mat;
  double* g_rhs = ws->g_rhs;
  // Normal matrix G = Ap' Ap (k x k), rhs g = Ap' y.
  for (int i = 0; i < k; ++i) {
    const int ci = passive[i];
    for (int j = i; j < k; ++j) {
      const int cj = passive[j];
      double acc = 0.0;
      for (int r = 0; r < rows; ++r) {
        acc += a[static_cast<size_t>(r) * cols + ci] *
               a[static_cast<size_t>(r) * cols + cj];
      }
      g_mat[static_cast<size_t>(i) * k + j] = acc;
      g_mat[static_cast<size_t>(j) * k + i] = acc;
    }
    double acc = 0.0;
    for (int r = 0; r < rows; ++r) {
      acc += a[static_cast<size_t>(r) * cols + ci] * y[r];
    }
    g_rhs[i] = acc;
  }
  // Ridge scaled to the diagonal magnitude.
  double diag_max = 0.0;
  for (int i = 0; i < k; ++i) {
    diag_max = std::max(diag_max, g_mat[static_cast<size_t>(i) * k + i]);
  }
  const double ridge = std::max(diag_max, 1.0) * 1e-12;
  for (int i = 0; i < k; ++i) g_mat[static_cast<size_t>(i) * k + i] += ridge;

  // Gaussian elimination with partial pivoting.
  for (int col = 0; col < k; ++col) {
    int pivot = col;
    double best = std::fabs(g_mat[static_cast<size_t>(col) * k + col]);
    for (int r = col + 1; r < k; ++r) {
      const double v = std::fabs(g_mat[static_cast<size_t>(r) * k + col]);
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best <= 0.0) return false;
    if (pivot != col) {
      for (int c = 0; c < k; ++c) {
        std::swap(g_mat[static_cast<size_t>(pivot) * k + c],
                  g_mat[static_cast<size_t>(col) * k + c]);
      }
      std::swap(g_rhs[pivot], g_rhs[col]);
    }
    const double inv = 1.0 / g_mat[static_cast<size_t>(col) * k + col];
    for (int r = col + 1; r < k; ++r) {
      const double factor = g_mat[static_cast<size_t>(r) * k + col] * inv;
      if (factor == 0.0) continue;
      for (int c = col; c < k; ++c) {
        g_mat[static_cast<size_t>(r) * k + c] -=
            factor * g_mat[static_cast<size_t>(col) * k + c];
      }
      g_rhs[r] -= factor * g_rhs[col];
    }
  }
  double* sol = ws->sol;
  for (int r = k - 1; r >= 0; --r) {
    double acc = g_rhs[r];
    for (int c = r + 1; c < k; ++c) {
      acc -= g_mat[static_cast<size_t>(r) * k + c] * sol[c];
    }
    sol[r] = acc / g_mat[static_cast<size_t>(r) * k + r];
  }
  std::fill(ws->z, ws->z + cols, 0.0);
  for (int i = 0; i < k; ++i) ws->z[passive[i]] = sol[i];
  return true;
}

double ResidualNorm(const NnlsProblem& p, const std::vector<double>& x) {
  double acc = 0.0;
  for (int r = 0; r < p.rows; ++r) {
    double pred = 0.0;
    for (int c = 0; c < p.cols; ++c) {
      pred += p.a[static_cast<size_t>(r) * p.cols + c] * x[c];
    }
    const double d = pred - p.y[r];
    acc += d * d;
  }
  return std::sqrt(acc);
}

bool AllFinite(const std::vector<double>& v) {
  for (double e : v) {
    if (!std::isfinite(e)) return false;
  }
  return true;
}

}  // namespace

StatusOr<NnlsResult> SolveNnls(const NnlsProblem& problem) {
  if (problem.rows <= 0 || problem.cols <= 0) {
    return Status::InvalidArgument("NNLS: empty problem");
  }
  if (problem.a.size() != static_cast<size_t>(problem.rows) * problem.cols) {
    return Status::InvalidArgument("NNLS: matrix shape mismatch");
  }
  if (problem.y.size() != static_cast<size_t>(problem.rows)) {
    return Status::InvalidArgument("NNLS: rhs size mismatch");
  }
  if (!problem.nonnegative.empty() &&
      problem.nonnegative.size() != static_cast<size_t>(problem.cols)) {
    return Status::InvalidArgument("NNLS: constraint flag size mismatch");
  }
  if (!AllFinite(problem.a) || !AllFinite(problem.y)) {
    return Status::InvalidArgument("NNLS: non-finite matrix or target entry");
  }

  const int n = problem.cols;
  const int rows = problem.rows;
  auto is_constrained = [&problem](int j) {
    return problem.nonnegative.empty() || problem.nonnegative[j];
  };
  int num_free = 0;
  for (int j = 0; j < n; ++j) num_free += is_constrained(j) ? 0 : 1;

  NnlsResult result;
  std::vector<double>& x = result.coefficients;
  x.assign(static_cast<size_t>(n), 0.0);

  // An all-zero target needs no solve. With at most one free column the
  // active-set loop returns exactly this: the free column's 1 x 1 solve
  // divides +0.0 by a positive pivot, every gradient entry is a sum of
  // zeros (+0.0, never above the tolerance), and the loop stops after its
  // first test. With more free columns a negative pivot can make a zero
  // -0.0, so those problems run the loop.
  if (num_free <= 1 &&
      std::all_of(problem.y.begin(), problem.y.end(),
                  [](double v) { return v == 0.0; })) {
    result.iterations = 1;
    result.residual_norm = 0.0;
    return result;
  }

  // Normalize columns to unit L2 norm for conditioning (selectivity-power
  // columns span many orders of magnitude); positive scaling preserves the
  // nonnegativity constraints and the coefficients are unscaled at the end.
  Workspace ws(rows, n);
  double* a = ws.a;
  for (int j = 0; j < n; ++j) {
    double norm = 0.0;
    for (int r = 0; r < rows; ++r) {
      const double v = problem.a[static_cast<size_t>(r) * n + j];
      norm += v * v;
    }
    norm = std::sqrt(norm);
    ws.col_scale[j] = norm > 0.0 ? norm : 1.0;
    for (int r = 0; r < rows; ++r) {
      const double v = problem.a[static_cast<size_t>(r) * n + j];
      a[static_cast<size_t>(r) * n + j] = norm > 0.0 ? v / norm : v;
    }
  }
  const std::vector<double>& y = problem.y;

  // Free columns start (and stay) in the passive set.
  for (int j = 0; j < n; ++j) {
    ws.in_passive[j] = is_constrained(j) ? 0 : 1;
    if (!is_constrained(j)) ws.passive[ws.num_passive++] = j;
  }

  double* z = ws.z;  // zero-initialized with the workspace
  if (ws.num_passive > 0) {
    if (!SolveSubproblem(rows, n, y, &ws)) {
      return Status::Internal("NNLS: singular subproblem on free columns");
    }
    std::copy(z, z + n, x.begin());
  }

  // Scale-aware tolerance for the dual feasibility test.
  double a_max = 0.0;
  for (size_t i = 0; i < problem.a.size(); ++i) {
    a_max = std::max(a_max, std::fabs(a[i]));
  }
  double y_max = 0.0;
  for (double v : y) y_max = std::max(y_max, std::fabs(v));
  const double tol = 1e-10 * std::max(1.0, a_max * y_max) * rows;

  const int max_outer = 3 * n + 30;
  for (int outer = 0; outer < max_outer; ++outer) {
    ++result.iterations;
    // Gradient w = A'(y - Ax).
    for (int r = 0; r < rows; ++r) {
      double pred = 0.0;
      for (int c = 0; c < n; ++c) {
        pred += a[static_cast<size_t>(r) * n + c] * x[c];
      }
      ws.resid[r] = y[r] - pred;
    }
    int best_j = -1;
    double best_w = tol;
    for (int j = 0; j < n; ++j) {
      if (ws.in_passive[j] != 0) continue;
      double w = 0.0;
      for (int r = 0; r < rows; ++r) {
        w += a[static_cast<size_t>(r) * n + j] * ws.resid[r];
      }
      if (w > best_w) {
        best_w = w;
        best_j = j;
      }
    }
    if (best_j < 0) break;  // KKT satisfied.

    ws.in_passive[best_j] = 1;
    ws.passive[ws.num_passive++] = best_j;

    // Inner loop: restore feasibility of constrained passive variables.
    for (int inner = 0; inner < 3 * n + 30; ++inner) {
      if (!SolveSubproblem(rows, n, y, &ws)) {
        return Status::Internal("NNLS: singular subproblem");
      }
      bool feasible = true;
      double alpha = std::numeric_limits<double>::infinity();
      for (int i = 0; i < ws.num_passive; ++i) {
        const int j = ws.passive[i];
        if (is_constrained(j) && z[j] <= 0.0) {
          feasible = false;
          const double denom = x[j] - z[j];
          if (denom > 0.0) alpha = std::min(alpha, x[j] / denom);
        }
      }
      if (feasible) {
        std::copy(z, z + n, x.begin());
        break;
      }
      if (!std::isfinite(alpha)) alpha = 0.0;
      for (int j = 0; j < n; ++j) {
        if (ws.in_passive[j] != 0) x[j] += alpha * (z[j] - x[j]);
      }
      // Move zeroed constrained variables back to the active set, keeping
      // the remaining passive columns in order.
      int kept = 0;
      for (int i = 0; i < ws.num_passive; ++i) {
        const int j = ws.passive[i];
        if (is_constrained(j) && x[j] <= 1e-14) {
          x[j] = 0.0;
          ws.in_passive[j] = 0;
        } else {
          ws.passive[kept++] = j;
        }
      }
      ws.num_passive = kept;
    }
  }

  // Unscale coefficients back to the original column units.
  for (int j = 0; j < n; ++j) x[j] /= ws.col_scale[j];
  result.residual_norm = ResidualNorm(problem, x);
  return result;
}

StatusOr<NnlsResult> SolveNnls(const std::vector<double>& a_row_major, int rows,
                               int cols, const std::vector<double>& y) {
  NnlsProblem problem;
  problem.a = a_row_major;
  problem.rows = rows;
  problem.cols = cols;
  problem.y = y;
  problem.nonnegative.assign(cols, true);
  return SolveNnls(problem);
}

}  // namespace uqp
