/* The compiled loops of comulti.classifiers: the SMO working-pair loop of
 * smo.solve_binary, the tree grower of forest.fit_forest and the walk of
 * forest.TrainedForest.predict_proba_batch.
 *
 * Plain C with no Python API: _native.py compiles this file at import and
 * calls it through ctypes, which releases the GIL for each call.  The
 * caller owns every buffer it passes; nothing here is static, so calls on
 * different threads do not interact.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* ---------------------------------------------------------------------
 * Tree growing, as forest.py describes it.  Random draws and Gini sums are
 * numpy's, so the trees are bit for bit those of the numpy form.  numpy's
 * bitgen_t (numpy/random/bitgen.h) begins with these members.
 */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *state);
    uint32_t (*next_uint32)(void *state);
} bitgen_t;

/* numpy's random_interval for max >= 1: [0, max] by masked rejection. */
static uint64_t random_interval(bitgen_t *g, uint64_t max)
{
    uint64_t mask = max, value;
    for (int shift = 1; shift < 64; shift *= 2)
        mask |= mask >> shift;
    do
        value = max <= 0xffffffffUL ? g->next_uint32(g->state) & mask
                                    : g->next_uint64(g->state) & mask;
    while (value > max);
    return value;
}

/* numpy's pairwise sum of a contiguous row: in order below 8, eight
 * running sums up to 128, in halves beyond. */
static double pairwise_sum(const double *a, ptrdiff_t n)
{
    double res = 0.0, r[8];
    ptrdiff_t i = 0;
    if (n > 128) {
        const ptrdiff_t half = n / 2 - (n / 2) % 8;
        return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
    }
    if (n >= 8) {
        for (; i < n - n % 8; i++)
            r[i % 8] = i < 8 ? a[i] : r[i % 8] + a[i];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    }
    for (; i < n; i++)
        res += a[i];
    return res;
}

/* 1.0 - ((c / n) ** 2).sum(): the Gini impurity of class counts c. */
static double gini(const double *c, double n, ptrdiff_t n_classes, double *sq)
{
    for (ptrdiff_t k = 0; k < n_classes; k++)
        sq[k] = (c[k] / n) * (c[k] / n);
    return 1.0 - pairwise_sum(sq, n_classes);
}

/* A value that `weight` samples of one label hold. */
struct entry {
    double value;
    ptrdiff_t label, weight;
};

static int by_value(const void *a, const void *b)
{
    const double u = *(const double *)a, v = *(const double *)b;
    return (u > v) - (u < v);
}

/* A node to grow and its samples boot[start .. end). */
struct span {
    ptrdiff_t node, start, end;
};

/* Grow one tree over the n samples boot (rows, repeats included; reordered
 * in place), depth first and left child first, into node arrays with room
 * for 2n - 1 nodes (at least 1).  A split scores the first n_candidates
 * features that vary, sorting only nonzero values: a node's zeros are one
 * run.  Dense, feature f of row r is values[f * n_rows + r]; sparse (indptr
 * not NULL), feature f holds values[p] in row indices[p] for p in
 * [indptr[f], indptr[f + 1]), each row once.  The caller has checked that
 * every value is finite and every label y[r] below n_classes.  Returns the
 * node count, or -1 when out of memory. */
ptrdiff_t grow_tree(ptrdiff_t n_rows, ptrdiff_t n_features,
                    ptrdiff_t n_candidates, ptrdiff_t n_classes,
                    const double *values, const ptrdiff_t *indptr,
                    const ptrdiff_t *indices, const ptrdiff_t *y,
                    bitgen_t *rng, ptrdiff_t n, ptrdiff_t *boot,
                    int32_t *feature, double *threshold, int32_t *left,
                    int32_t *right, int32_t *vote)
{
    ptrdiff_t n_nodes = -1, depth = 1;
    /* Zeroed scratch, one element more than needed so no size is 0. */
    ptrdiff_t *perm = calloc(n_features + 2 * n_classes + n_rows + 1,
                             sizeof *perm);
    double *lc = calloc(3 * n_classes + n_rows + 1, sizeof *lc);
    struct entry *e = calloc(n + n_classes + 1, sizeof *e);
    struct span *stack = calloc(n + 1, sizeof *stack);
    if (!perm || !lc || !e || !stack)
        goto done;
    ptrdiff_t *counts = perm + n_features;
    ptrdiff_t *zeros = counts + n_classes, *mult = zeros + n_classes;
    double *rc = lc + n_classes, *sq = rc + n_classes, *val = sq + n_classes;
    stack[0] = (struct span){0, 0, n};
    n_nodes = 1;
    while (depth) {
        const struct span s = stack[--depth];
        const ptrdiff_t id = s.node, m = s.end - s.start;
        ptrdiff_t *r = boot + s.start, top = 0;
        memset(counts, 0, n_classes * sizeof *counts);
        for (ptrdiff_t i = 0; i < m; i++)
            counts[y[r[i]]]++;
        for (ptrdiff_t k = 1; k < n_classes; k++)
            top = counts[k] > counts[top] ? k : top;
        feature[id] = left[id] = right[id] = -1;
        threshold[id] = 0.0;
        vote[id] = (int32_t)top;
        if (m < 2 || counts[top] == m)
            continue;

        for (ptrdiff_t f = 0; f < n_features; f++)
            perm[f] = f;
        for (ptrdiff_t i = n_features - 1; i >= 1; i--) {
            const ptrdiff_t j = random_interval(rng, i), t = perm[i];
            perm[i] = perm[j];
            perm[j] = t;
        }
        for (ptrdiff_t i = 0; i < m; i++)
            mult[r[i]]++; /* each row's samples in the node */
        double best = INFINITY, thr = 0.0;
        ptrdiff_t best_f = -1;
        for (ptrdiff_t pi = 0, tried = 0;
             pi < n_features && tried < n_candidates; pi++) {
            const ptrdiff_t f = perm[pi];
            ptrdiff_t ne = 0;
            if (indptr) {
                for (ptrdiff_t p = indptr[f]; p < indptr[f + 1]; p++)
                    if (mult[indices[p]] && values[p] != 0)
                        e[ne++] = (struct entry){values[p], y[indices[p]],
                                                 mult[indices[p]]};
            } else {
                for (ptrdiff_t i = 0; i < m; i++)
                    if (values[f * n_rows + r[i]] != 0)
                        e[ne++] = (struct entry){values[f * n_rows + r[i]],
                                                 y[r[i]], 1};
            }
            memcpy(zeros, counts, n_classes * sizeof *zeros);
            for (ptrdiff_t i = 0; i < ne; i++)
                zeros[e[i].label] -= e[i].weight;
            for (ptrdiff_t k = 0; k < n_classes; k++)
                if (zeros[k])
                    e[ne++] = (struct entry){0.0, k, zeros[k]};
            qsort(e, ne, sizeof *e, by_value);
            if (e[0].value == e[ne - 1].value)
                continue; /* constant in this node */
            tried++;
            /* Every cut between two runs of equal values, lowest first. */
            double nl = 0.0;
            memset(lc, 0, n_classes * sizeof *lc);
            for (ptrdiff_t i = 0; i < ne;) {
                const double v = e[i].value;
                for (; i < ne && e[i].value == v; i++) {
                    lc[e[i].label] += (double)e[i].weight;
                    nl += (double)e[i].weight;
                }
                if (i == ne)
                    break;
                const double nr = (double)m - nl;
                for (ptrdiff_t k = 0; k < n_classes; k++)
                    rc[k] = (double)counts[k] - lc[k];
                const double score = (nl * gini(lc, nl, n_classes, sq)
                                      + nr * gini(rc, nr, n_classes, sq))
                                     / (double)m;
                if (score < best) {
                    best = score;
                    best_f = f;
                    thr = 0.5 * (v + e[i].value); /* unless it rounds up */
                    thr = v <= thr && thr < e[i].value ? thr : v;
                }
            }
        }
        for (ptrdiff_t i = 0; i < m; i++)
            mult[r[i]] = 0;
        if (best_f < 0)
            continue;

        if (indptr) /* the sparse feature's values, spread into val */
            for (ptrdiff_t p = indptr[best_f]; p < indptr[best_f + 1]; p++)
                val[indices[p]] = values[p];
        const double *col = indptr ? val : values + best_f * n_rows;
        ptrdiff_t n_left = 0; /* samples <= thr to the front */
        for (ptrdiff_t i = 0; i < m; i++) {
            const ptrdiff_t t = r[i];
            if (col[t] <= thr) {
                r[i] = r[n_left];
                r[n_left++] = t;
            }
        }
        if (indptr)
            for (ptrdiff_t p = indptr[best_f]; p < indptr[best_f + 1]; p++)
                val[indices[p]] = 0.0;
        feature[id] = (int32_t)best_f;
        threshold[id] = thr;
        left[id] = (int32_t)n_nodes;
        right[id] = (int32_t)(n_nodes + 1);
        vote[id] = -1;
        stack[depth++] = (struct span){n_nodes + 1, s.start + n_left, s.end};
        stack[depth++] = (struct span){n_nodes, s.start, s.start + n_left};
        n_nodes += 2;
    }

done:
    free(perm);
    free(lc);
    free(e);
    free(stack);
    return n_nodes;
}
