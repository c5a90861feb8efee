/* The compiled loops of comulti.classifiers: the SMO working-pair loop of
 * smo.solve_binary and the walk of forest.TrainedForest.predict_proba_batch.
 *
 * Plain C with no Python API: _native.py compiles this file at import and
 * calls it through ctypes, which releases the GIL for each call.  The
 * caller owns every buffer; nothing here is static, so calls on different
 * threads do not interact.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* ---------------------------------------------------------------------
 * SMO.  Every element goes through the same rounded IEEE operations, in
 * the same order, as the plain numpy form of the solver, so alphas,
 * gradient, gap and iteration count are the same to the bit.  Index
 * choices follow numpy's argmax: the first maximum wins, and the first NaN
 * wins over any number.
 */

/* Kernel column i (n contiguous doubles), or NULL on failure.  A column
 * must stay valid until the call after next: column i of a working pair is
 * still read after column j has been fetched. */
typedef const double *(*smo_column_fn)(ptrdiff_t i);

enum {
    SMO_CONVERGED = 0, /* the gap dropped below tol */
    SMO_EMPTY_SET = 1, /* up or low became empty; the gap is 0 */
    SMO_CAP = 2,       /* ran max_iter iterations */
    SMO_NO_COLUMN = 3  /* the column callback failed */
};

/* Solve one binary problem from the state the caller set up.
 *
 * y, neg_y: labels (+/-1) and their negation, which is passed in because
 * the compiler may rewrite (-y[t]) * grad[t] as -(y[t] * grad[t]), and that
 * flips the sign bit of a NaN product.  diag: kernel diagonal.
 * gram: the full Gram matrix in column-major order, or NULL, in which case
 * column(i) supplies column i.  alpha, grad, up, low: the multipliers, the
 * dual gradient and the index-set flags, updated in place.  yg: n doubles
 * of scratch.  On return *gap_out is the last violation gap and *it_out
 * the number of iterations done.
 */
int smo_solve(ptrdiff_t n, const double *y, const double *neg_y,
              const double *diag, const double *gram, smo_column_fn column,
              double c, double tol, long long max_iter,
              double *alpha, double *grad, unsigned char *up,
              unsigned char *low, double *yg,
              double *gap_out, long long *it_out)
{
    const double eps = 1e-12;
    const double top = c - eps;
    ptrdiff_t n_up = 0, n_low = 0;
    for (ptrdiff_t t = 0; t < n; t++) {
        n_up += up[t] != 0;
        n_low += low[t] != 0;
    }
    double gap = INFINITY;
    long long it = 0;
    int status = SMO_CAP;
    while (it < max_iter) {
        if (!n_up || !n_low) {
            gap = 0.0;
            status = SMO_EMPTY_SET;
            break;
        }
        /* i = argmax over up rows of yg; lo = min over low rows of yg. */
        ptrdiff_t i = 0;
        double m_val = -INFINITY, lo = INFINITY;
        int m_nan = 0, lo_nan = 0;
        for (ptrdiff_t t = 0; t < n; t++) {
            double g = neg_y[t] * grad[t];
            yg[t] = g;
            double u = up[t] ? g : -INFINITY;
            if (!m_nan && !(u <= m_val)) {
                m_val = u;
                i = t;
                m_nan = isnan(u);
            }
            double l = low[t] ? g : INFINITY;
            if (!lo_nan && !(l >= lo)) {
                lo = l;
                lo_nan = isnan(l);
            }
        }
        gap = m_val - lo;
        if (gap < tol) {
            status = SMO_CONVERGED;
            break;
        }

        const double *k_i = gram ? gram + i * n : column(i);
        if (!k_i) {
            status = SMO_NO_COLUMN;
            break;
        }
        /* Second-order selection among violators (low rows below m_val):
         * the largest decrease (m_val - yg)^2 / quad of the dual objective
         * for the pair (i, t). */
        const double d_i = diag[i];
        ptrdiff_t j = 0;
        double best = -INFINITY;
        int best_nan = 0;
        for (ptrdiff_t t = 0; t < n; t++) {
            double quad_t = (d_i + diag[t]) - 2.0 * k_i[t];
            if (!(quad_t > 0))
                quad_t = 1e-12;
            double b = m_val - yg[t];
            b = (b * b) / quad_t;
            double l = low[t] ? yg[t] : INFINITY;
            double v = l < m_val ? b : -INFINITY;
            if (!best_nan && !(v <= best)) {
                best = v;
                j = t;
                best_nan = isnan(v);
            }
        }

        const double *k_j = gram ? gram + j * n : column(j);
        if (!k_j) {
            status = SMO_NO_COLUMN;
            break;
        }
        const double yi = y[i], yj = y[j];
        const double gi = grad[i], gj = grad[j];
        const double old_ai = alpha[i], old_aj = alpha[j];
        double quad = diag[i] + diag[j] - 2.0 * k_i[j];
        if (quad <= 0)
            quad = 1e-12;
        double ai, aj;
        if (yi != yj) {
            const double delta = (-gi - gj) / quad;
            const double diff = old_ai - old_aj;
            ai = old_ai + delta;
            aj = old_aj + delta;
            if (diff > 0) {
                if (aj < 0) {
                    aj = 0.0;
                    ai = diff;
                }
            } else {
                if (ai < 0) {
                    ai = 0.0;
                    aj = -diff;
                }
            }
            if (diff > 0) {
                if (ai > c) {
                    ai = c;
                    aj = c - diff;
                }
            } else {
                if (aj > c) {
                    aj = c;
                    ai = c + diff;
                }
            }
        } else {
            const double delta = (gi - gj) / quad;
            const double total = old_ai + old_aj;
            ai = old_ai - delta;
            aj = old_aj + delta;
            if (total > c) {
                if (ai > c) {
                    ai = c;
                    aj = total - c;
                }
            } else {
                if (aj < 0) {
                    aj = 0.0;
                    ai = total;
                }
            }
            if (total > c) {
                if (aj > c) {
                    aj = c;
                    ai = total - c;
                }
            } else {
                if (ai < 0) {
                    ai = 0.0;
                    aj = total;
                }
            }
        }
        alpha[i] = ai;
        alpha[j] = aj;
        /* grad += (y * yi * k_i) * (ai - old_ai) + (y * yj * k_j) * (aj - old_aj),
         * with each +/-1 factor applied where it rounds nothing. */
        const double s_i = yi * (ai - old_ai), s_j = yj * (aj - old_aj);
        for (ptrdiff_t t = 0; t < n; t++)
            grad[t] = grad[t] + (y[t] * (k_i[t] * s_i) + y[t] * (k_j[t] * s_j));

        const ptrdiff_t rows[2] = {i, j};
        for (int r = 0; r < 2; r++) {
            const ptrdiff_t t = rows[r];
            const int grow = alpha[t] < top, shrink = alpha[t] > eps;
            const int is_up = y[t] > 0 ? grow : shrink;
            const int is_low = y[t] > 0 ? shrink : grow;
            if (is_up != (up[t] != 0)) {
                up[t] = (unsigned char)is_up;
                n_up += is_up ? 1 : -1;
            }
            if (is_low != (low[t] != 0)) {
                low[t] = (unsigned char)is_low;
                n_low += is_low ? 1 : -1;
            }
        }
        it++;
    }
    *gap_out = gap;
    *it_out = it;
    return status;
}

/* ---------------------------------------------------------------------
 * Forest.  One forest's trees packed into one node table, with node ids
 * absolute in it: roots[t] is tree t's root, an inner node (feature >= 0)
 * sends a row to left[node] when row[feature] <= threshold[node] and to
 * right[node] otherwise (NaN compares false, so it goes right), and a leaf
 * (feature < 0) votes vote[node].  The caller has checked the table: every
 * feature is below n_features, every child lies after its parent and in
 * its own tree, and every vote is below n_labels, so each walk ends inside
 * the table and each count inside its row.
 */
struct forest_table {
    ptrdiff_t n_trees, n_features, n_labels;
    const ptrdiff_t *roots, *feature, *left, *right, *vote;
    const double *threshold;
};

/* Walk every (row, tree) pair of the n rows of x (row-major, n_features
 * doubles per row) and add each leaf's vote to counts (row-major, n_labels
 * int64 per row). */
void forest_counts(const struct forest_table *f, ptrdiff_t n,
                   const double *x, int64_t *counts)
{
    for (ptrdiff_t r = 0; r < n; r++) {
        const double *row = x + r * f->n_features;
        int64_t *row_counts = counts + r * f->n_labels;
        for (ptrdiff_t t = 0; t < f->n_trees; t++) {
            ptrdiff_t node = f->roots[t];
            ptrdiff_t feat = f->feature[node];
            while (feat >= 0) {
                node = row[feat] <= f->threshold[node] ? f->left[node]
                                                       : f->right[node];
                feat = f->feature[node];
            }
            row_counts[f->vote[node]]++;
        }
    }
}
