/* The compiled loops of comulti, in file order; this is the one list of
 * them (smo and forest are modules of comulti.classifiers):
 *   smo_solve         the SMO working-pair loop of smo.solve_binary, which
 *                     computes each training kernel row it lacks;
 *   sparse_product    the kernel product of every training kernel row and
 *                     of smo._poly_kernel's sparse operands;
 *   forest_counts     the walk of forest.TrainedForest.predict_proba_batch
 *                     over dense or CSR rows;
 *   grow_tree         the tree grower of forest.fit_forest;
 *   csr_check         the check of a CSR matrix's arrays before any other
 *                     loop or scipy reads them (_native.Csr);
 *   parse_sparse      the row pass of dataset.load_sparse;
 *   smo_avx2          1 when the CPU has AVX2, read once by _native.py;
 *   smo_lane          the lane of 4 that each pass below ends on;
 *   smo_choose_avx2   smo_solve's choice of j, 4 rows at a time;
 *   smo_update_avx2   smo_solve's gradient update and pick, 4 rows at a time;
 *   kernel_diag       the training kernel's diagonal, for smo._Kernel;
 *   kernel_entries    (v + 1)^degree of smo._poly_kernel's products.
 * New functions go at the end, so that those above keep their addresses;
 * the compiler emits smo_solve after the two AVX2 passes, which it calls.
 *
 * Plain C with no Python API: _native.py compiles this file at import and
 * calls it through ctypes, which releases the GIL for each call.  The
 * caller owns every buffer it passes; nothing here is static, so calls on
 * different threads do not interact.
 */

#include <errno.h>
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

enum {
    SMO_CONVERGED = 0, /* the gap dropped below tol */
    SMO_EMPTY_SET = 1, /* up or low became empty; the gap is 0 */
    SMO_CAP = 2        /* ran max_iter iterations */
};

/* The training kernel of one smo._Kernel, bound once: K(x_i, x_t) =
 * (x_i . x_t + 1)^degree over its n training rows, stored as CSR (xp, xi,
 * xx) and transposed (tp, ti, tx), both checked by csr_check.  Row i,
 * K(x_i, .) for every t, is the n doubles at table + slot[i] * n, or
 * absent while slot[i] < 0; the table has room for width rows, and an
 * absent row the solver reads goes into slot next.  diag[i] is K(x_i,
 * x_i) as row i holds it. */
struct smo_kernel {
    ptrdiff_t n, degree, width, next;
    const ptrdiff_t *xp, *xi;
    const double *xx;
    const ptrdiff_t *tp, *ti;
    const double *tx;
    double *table, *diag;
    ptrdiff_t *slot;
};

void sparse_product(ptrdiff_t n_rows, ptrdiff_t n_out, const ptrdiff_t *ap,
                    const ptrdiff_t *ai, const double *ax, const ptrdiff_t *bp,
                    const ptrdiff_t *bi, const double *bx, double *out);

/* The kernel entry of a product v: (v + 1)^degree, the power as v + 1
 * times itself degree - 1 times, left to right (so v + 1 squared for
 * degree 2, as numpy squares it), which rounds the same on every CPU;
 * numpy's ** of degree 3 and up calls a pow that depends on the CPU
 * (SVML's under AVX-512).  Each static helper is always inlined, so none
 * is emitted ahead of smo_solve and moves it. */
static inline __attribute__((always_inline))
double smo_entry(double v, ptrdiff_t degree)
{
    const double base = v + 1.0;
    double out = base;
    for (ptrdiff_t d = 1; d < degree; d++)
        out = out * base;
    return out;
}

/* The count products at v, in place, as kernel entries by smo_entry's
 * rule, 4 at a time so that the compiler vectorizes a block whole (GCC's
 * -O2 vectorizes no loop that needs a scalar tail), then one at a time. */
static inline __attribute__((always_inline))
void smo_entries(double *v, ptrdiff_t count, ptrdiff_t degree)
{
    ptrdiff_t t = 0;
    for (; t + 4 <= count; t += 4) {
        double base[4], out[4];
        for (int l = 0; l < 4; l++)
            out[l] = base[l] = v[t + l] + 1.0;
        for (ptrdiff_t d = 1; d < degree; d++)
            for (int l = 0; l < 4; l++)
                out[l] = out[l] * base[l];
        for (int l = 0; l < 4; l++)
            v[t + l] = out[l];
    }
    for (; t < count; t++)
        v[t] = smo_entry(v[t], degree);
}

/* Row i of the kernel into out: x_i against the transposed rows by
 * sparse_product, summed in x_i's stored order, then smo_entries. */
static inline __attribute__((always_inline))
void smo_row(const struct smo_kernel *k, ptrdiff_t i, double *out)
{
    memset(out, 0, k->n * sizeof *out);
    sparse_product(1, k->n, k->xp + i, k->xi, k->xx, k->tp, k->ti, k->tx,
                   out);
    smo_entries(out, k->n, k->degree);
}

/* Row i in the table: if it is absent, computed into slot next, or the
 * slot after when next holds row keep, which the caller still reads; the
 * row that held that slot becomes absent. */
static inline __attribute__((always_inline))
const double *smo_fetch(struct smo_kernel *k, ptrdiff_t i, ptrdiff_t keep)
{
    if (k->slot[i] < 0) {
        ptrdiff_t put = k->next;
        if (k->slot[keep] == put)
            put = (put + 1) % k->width;
        k->next = (put + 1) % k->width;
        for (ptrdiff_t t = 0; t < k->n; t++)
            if (k->slot[t] == put)
                k->slot[t] = -1;
        smo_row(k, i, k->table + put * k->n);
        k->slot[i] = put;
    }
    return k->table + k->slot[i] * k->n;
}

/* The first index of a working pair: i, the argmax of yg over up rows, at
 * value m_val, and lo, the min of yg over low rows, each NaN-sticky. */
struct smo_pick {
    ptrdiff_t i;
    double m_val, lo;
    int m_nan, lo_nan;
};

/* The pick over no rows. */
static struct smo_pick smo_pick_none(void)
{
    return (struct smo_pick){0, -INFINITY, INFINITY, 0, 0};
}

/* Row t, with yg[t] == g, enters the pick. */
static void smo_pick_row(struct smo_pick *p, ptrdiff_t t, double g,
                         int is_up, int is_low)
{
    const double u = is_up ? g : -INFINITY;
    if (!p->m_nan && !(u <= p->m_val)) {
        p->m_val = u;
        p->i = t;
        p->m_nan = isnan(u);
    }
    const double l = is_low ? g : INFINITY;
    if (!p->lo_nan && !(l >= p->lo)) {
        p->lo = l;
        p->lo_nan = isnan(l);
    }
}

#if defined(__x86_64__)
ptrdiff_t smo_choose_avx2(ptrdiff_t n, const unsigned char *low,
                          const double *yg, const double *diag,
                          const double *k_i, double d_i, double m_val,
                          ptrdiff_t *j, double *best);
ptrdiff_t smo_update_avx2(ptrdiff_t n, const double *y, const double *neg_y,
                          const double *k_i, const double *k_j, double s_i,
                          double s_j, const unsigned char *up,
                          const unsigned char *low, double *grad, double *yg,
                          struct smo_pick *pick);
#else
/* No AVX2 form: smo_avx2() is 0, and a pass starts at row 0. */
#define smo_choose_avx2(...) 0
#define smo_update_avx2(...) 0
#endif

/* Solve one binary problem from the state the caller set up.
 *
 * k: the kernel; the solver reads row i as column i, which by the kernel's
 * symmetry holds the same values, and puts each absent row it reads in
 * the table.  y, neg_y: labels (+/-1) and their negation, which is passed
 * in because the compiler may rewrite (-y[t]) * grad[t] as -(y[t] *
 * grad[t]), and that flips the sign bit of a NaN product.  alpha, grad,
 * up, low: the multipliers, the dual gradient and the index-set flags,
 * updated in place.  yg: n doubles, on return -y * grad of the last
 * gradient, so y - yg is each row's score without the bias (fit_smo's
 * Platt scores).  On return *gap_out is the last violation gap and
 * *it_out the iterations done.
 *
 * The gap is m_val - lo, where i is the first up row at the maximum of yg
 * and lo the value of the first low row at its minimum: a tie keeps the
 * first row's value, sign of zero included (of -0 and +0, the earlier
 * row's), and the first NaN wins over any number.
 *
 * An iteration makes two passes over the rows: the second-order choice of
 * j, and one pass that updates the gradient with the pair's step and, on
 * the new gradient and index sets, picks the next iteration's i and gap.
 * With avx2 set (only where smo_avx2() is 1) each pass takes its rows 4
 * at a time, up to n rounded down to a multiple of 4, with the same picks,
 * and the scalar loop below goes on from there.
 */
int smo_solve(struct smo_kernel *k, const double *y, const double *neg_y,
              double c, double tol, long long max_iter,
              double *alpha, double *grad, unsigned char *up,
              unsigned char *low, double *yg,
              double *gap_out, long long *it_out, int avx2)
{
    const ptrdiff_t n = k->n;
    const double *diag = k->diag;
    const double eps = 1e-12;
    const double top = c - eps;
    ptrdiff_t n_up = 0, n_low = 0;
    for (ptrdiff_t t = 0; t < n; t++) {
        n_up += up[t] != 0;
        n_low += low[t] != 0;
    }
    /* The first iteration's pick; each later one is taken in the pass that
     * updates the gradient. */
    struct smo_pick pick = smo_pick_none();
    for (ptrdiff_t t = 0; t < n; t++) {
        const double g = neg_y[t] * grad[t];
        yg[t] = g;
        smo_pick_row(&pick, t, g, up[t], low[t]);
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
        const ptrdiff_t i = pick.i;
        const double m_val = pick.m_val;
        gap = m_val - pick.lo;
        if (gap < tol) {
            status = SMO_CONVERGED;
            break;
        }

        const double *k_i = smo_fetch(k, i, i);
        /* Second-order selection among violators (low rows below m_val):
         * the largest decrease (m_val - yg)^2 / quad of the dual objective
         * for the pair (i, t).  Any other row scores -inf, which is never
         * picked, so it is skipped. */
        const double d_i = diag[i];
        ptrdiff_t j = 0, t = 0;
        double best = -INFINITY;
        if (avx2)
            t = smo_choose_avx2(n, low, yg, diag, k_i, d_i, m_val, &j, &best);
        int best_nan = isnan(best);
        for (; t < n; t++) {
            if (!low[t] || !(yg[t] < m_val))
                continue;
            double quad_t = (d_i + diag[t]) - 2.0 * k_i[t];
            if (!(quad_t > 0))
                quad_t = 1e-12;
            double b = m_val - yg[t];
            b = (b * b) / quad_t;
            if (!best_nan && !(b <= best)) {
                best = b;
                j = t;
                best_nan = isnan(b);
            }
        }

        const double *k_j = smo_fetch(k, j, i);
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

        /* grad += (y * yi * k_i) * (ai - old_ai) + (y * yj * k_j) * (aj - old_aj),
         * with each +/-1 factor applied where it rounds nothing; in the same
         * pass, yg and the next iteration's i, m_val and lo.  After the last
         * iteration the selection goes unused: gap stays the one this
         * iteration began with. */
        const double s_i = yi * (ai - old_ai), s_j = yj * (aj - old_aj);
        pick = smo_pick_none();
        t = 0;
        if (avx2)
            t = smo_update_avx2(n, y, neg_y, k_i, k_j, s_i, s_j, up, low, grad,
                                yg, &pick);
        for (; t < n; t++) {
            grad[t] = grad[t] + (y[t] * (k_i[t] * s_i) + y[t] * (k_j[t] * s_j));
            const double g = neg_y[t] * grad[t];
            yg[t] = g;
            smo_pick_row(&pick, t, g, up[t], low[t]);
        }
    }
    *gap_out = gap;
    *it_out = it;
    return status;
}

/* ---------------------------------------------------------------------
 * Sparse kernel product: out += A @ B.T for a CSR A of n_rows rows and
 * bt = B.T as CSR, into n_rows x n_out row-major doubles.  The loop is
 * scipy's csr_matmat (SMMP; Bank & Douglas, Adv. Comput. Math. 1993): row r
 * of A in stored order, then row j of bt in stored order.  Into a zeroed
 * buffer every sum is added in the order scipy adds it, from +0.0, so out
 * is (A @ B.T).toarray() to the bit: scipy stores no sum that is 0, and a
 * sum begun at +0.0 is never -0.0.  Where a NaN sum meets a NaN product,
 * scipy's build keeps the product's NaN (sign and payload); a compiler may
 * swap the operands of +, and x86 keeps the first operand's NaN, so the
 * loop picks it itself.  The caller has checked that every index of A is a
 * row of bt and every index of bt a column of out.
 */
void sparse_product(ptrdiff_t n_rows, ptrdiff_t n_out, const ptrdiff_t *ap,
                    const ptrdiff_t *ai, const double *ax, const ptrdiff_t *bp,
                    const ptrdiff_t *bi, const double *bx, double *out)
{
    for (ptrdiff_t r = 0; r < n_rows; r++) {
        double *row = out + r * n_out;
        for (ptrdiff_t jj = ap[r]; jj < ap[r + 1]; jj++) {
            const double v = ax[jj];
            const ptrdiff_t j = ai[jj];
            for (ptrdiff_t kk = bp[j]; kk < bp[j + 1]; kk++) {
                const double p = v * bx[kk];
                double *sum = row + bi[kk];
                *sum = isnan(p) ? p : *sum + p;
            }
        }
    }
}

/* ---------------------------------------------------------------------
 * Forest.  A tree is an array of node records, its root first, with child
 * ids local to the tree: an inner node (feature >= 0) sends a row to
 * tree[left] when row[feature] <= threshold and to tree[right] otherwise
 * (NaN compares false, so it goes right); a leaf (feature < 0) votes vote.
 * The grower writes these records and a forest's walk reads its trees one
 * after another from nodes, tree t from record roots[t].  The caller has
 * checked the records: every feature is below n_features, every child lies
 * after its parent and inside its tree, and every vote is below n_labels,
 * so each walk ends inside its tree and each count inside its row.
 */
struct node {
    int32_t feature, vote;
    int64_t left, right;
    double threshold;
};

struct forest_table {
    ptrdiff_t n_trees, n_features, n_labels;
    const ptrdiff_t *roots;
    const struct node *nodes;
};

/* Walk every (row, tree) pair of n rows and add each leaf's vote to counts
 * (row-major, n_labels doubles per row).  Without indptr, x holds the rows
 * row-major, n_features doubles per row.  With it, the rows are CSR: row r
 * stores x[p] in column indices[p] for p in [indptr[r], indptr[r + 1]),
 * checked by csr_check.  Each stored value is added, in stored order, into
 * row, n_features doubles that the caller zeroed, so repeated columns sum
 * and -0.0 reads +0.0 as in scipy's toarray; after the walk the touched
 * entries are set back to +0.0.  A count stays a whole number below 2^53,
 * so each + 1.0 is exact, and the caller divides the counts in place by
 * the tree count, to the bits of numpy's int64 counts / n_trees. */
void forest_counts(const struct forest_table *f, ptrdiff_t n,
                   const ptrdiff_t *indptr, const ptrdiff_t *indices,
                   const double *x, double *row, double *counts)
{
    for (ptrdiff_t r = 0; r < n; r++) {
        if (indptr)
            for (ptrdiff_t p = indptr[r]; p < indptr[r + 1]; p++)
                row[indices[p]] += x[p];
        const double *v = indptr ? row : x + r * f->n_features;
        double *row_counts = counts + r * f->n_labels;
        for (ptrdiff_t t = 0; t < f->n_trees; t++) {
            const struct node *tree = f->nodes + f->roots[t], *node = tree;
            while (node->feature >= 0)
                node = tree + (v[node->feature] <= node->threshold
                               ? node->left : node->right);
            row_counts[node->vote] += 1.0;
        }
        if (indptr)
            for (ptrdiff_t p = indptr[r]; p < indptr[r + 1]; p++)
                row[indices[p]] = 0.0;
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

/* numpy's random_interval for max >= 1, with mask the smallest 2^k - 1
 * >= max: [0, max] by masked rejection. */
static uint64_t random_interval(bitgen_t *g, uint64_t max, uint64_t mask)
{
    uint64_t value;
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

/* Sort e[0 .. n) by value, ascending, through tmp (room for n entries),
 * and return the sorted array, e or tmp: insertion sort within runs of
 * RUN entries, then bottom-up merges of runs into the other buffer, so
 * n log n comparisons at worst, whatever the order.  grow_tree is its one
 * caller, so it is inlined there: a static function left out of line is
 * emitted ahead of smo_solve and moves it. */
static struct entry *sort_entries(struct entry *e, struct entry *tmp,
                                  ptrdiff_t n)
{
    enum { RUN = 16 };
    for (ptrdiff_t lo = 0; lo < n; lo += RUN) {
        const ptrdiff_t hi = lo + RUN < n ? lo + RUN : n;
        for (ptrdiff_t i = lo + 1; i < hi; i++) {
            const struct entry x = e[i];
            ptrdiff_t j = i;
            for (; j > lo && e[j - 1].value > x.value; j--)
                e[j] = e[j - 1];
            e[j] = x;
        }
    }
    for (ptrdiff_t w = RUN; w < n; w *= 2) {
        for (ptrdiff_t lo = 0; lo < n; lo += 2 * w) {
            const ptrdiff_t mid = lo + w < n ? lo + w : n;
            const ptrdiff_t hi = lo + 2 * w < n ? lo + 2 * w : n;
            ptrdiff_t a = lo, b = mid, k = lo;
            while (a < mid && b < hi)
                tmp[k++] = e[b].value < e[a].value ? e[b++] : e[a++];
            memcpy(tmp + k, e + a, (mid - a) * sizeof *e);
            memcpy(tmp + k + (mid - a), e + b, (hi - b) * sizeof *e);
        }
        struct entry *t = e;
        e = tmp;
        tmp = t;
    }
    return e;
}

/* A node to grow and its samples boot[start .. end). */
struct span {
    ptrdiff_t node, start, end;
};

/* Grow one tree over the n samples boot (rows, repeats included; reordered
 * in place), depth first and left child first, into node records with
 * room for 2n - 1 (at least 1).  A split scores the first n_candidates
 * features that vary.  A feature with no nonzero value in the node's rows
 * is skipped before anything is sorted; otherwise its nonzero values, and
 * one entry per class for the node's zeros, are sorted by sort_entries, in
 * n log n comparisons at worst, and a feature that is still one value is
 * skipped then.  Neither skip counts as a candidate.  Each node's
 * permutation masks its draws from [0, i] with a mask halved as i falls
 * below each power of two, not recomputed per draw, so the draws, and
 * the stream left after them, are numpy's.  Dense, feature f of row r is
 * values[f * n_rows + r]; sparse (indptr not NULL), feature f holds
 * values[p] in row indices[p] for p in [indptr[f], indptr[f + 1]), each
 * row once.  The caller has checked that every value is finite and every
 * label y[r] below n_classes.  Returns the node count, or -1 when out of
 * memory. */
ptrdiff_t grow_tree(ptrdiff_t n_rows, ptrdiff_t n_features,
                    ptrdiff_t n_candidates, ptrdiff_t n_classes,
                    const double *values, const ptrdiff_t *indptr,
                    const ptrdiff_t *indices, const ptrdiff_t *y,
                    bitgen_t *rng, ptrdiff_t n, ptrdiff_t *boot,
                    struct node *nodes)
{
    ptrdiff_t n_nodes = -1, depth = 1;
    /* Zeroed scratch, one element more than needed so no size is 0. */
    ptrdiff_t *perm = calloc(n_features + 2 * n_classes + n_rows + 1,
                             sizeof *perm);
    double *lc = calloc(3 * n_classes + n_rows + 1, sizeof *lc);
    struct entry *e = calloc(2 * (n + n_classes + 1), sizeof *e);
    struct span *stack = calloc(n + 1, sizeof *stack);
    if (!perm || !lc || !e || !stack)
        goto done;
    struct entry *tmp = e + n + n_classes + 1; /* sort_entries' other half */
    uint64_t top_mask = 0; /* smallest 2^k - 1 >= n_features - 1 */
    while ((ptrdiff_t)top_mask < n_features - 1)
        top_mask = 2 * top_mask + 1;
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
        nodes[id] = (struct node){-1, (int32_t)top, -1, -1, 0.0};
        if (m < 2 || counts[top] == m)
            continue;

        for (ptrdiff_t f = 0; f < n_features; f++)
            perm[f] = f;
        uint64_t mask = top_mask;
        for (ptrdiff_t i = n_features - 1; i >= 1; i--) {
            if ((uint64_t)i <= mask >> 1)
                mask >>= 1; /* i fell below the next power of two */
            const ptrdiff_t j = random_interval(rng, i, mask), t = perm[i];
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
            if (!ne)
                continue; /* all zero in this node */
            memcpy(zeros, counts, n_classes * sizeof *zeros);
            for (ptrdiff_t i = 0; i < ne; i++)
                zeros[e[i].label] -= e[i].weight;
            for (ptrdiff_t k = 0; k < n_classes; k++)
                if (zeros[k])
                    e[ne++] = (struct entry){0.0, k, zeros[k]};
            const struct entry *o = sort_entries(e, tmp, ne);
            if (o[0].value == o[ne - 1].value)
                continue; /* constant in this node */
            tried++;
            /* Every cut between two runs of equal values, lowest first. */
            double nl = 0.0;
            memset(lc, 0, n_classes * sizeof *lc);
            for (ptrdiff_t i = 0; i < ne;) {
                const double v = o[i].value;
                for (; i < ne && o[i].value == v; i++) {
                    lc[o[i].label] += (double)o[i].weight;
                    nl += (double)o[i].weight;
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
                    thr = 0.5 * (v + o[i].value); /* unless it rounds up */
                    thr = v <= thr && thr < o[i].value ? thr : v;
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
        nodes[id] = (struct node){(int32_t)best_f, -1, n_nodes, n_nodes + 1,
                                  thr};
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

/* ---------------------------------------------------------------------
 * CSR input.  Check the CSR arrays of an n_rows x n_cols matrix with nnz
 * stored entries: n_rows + 1 row pointers starting at 0, never
 * decreasing and ending at most at nnz, and every index of the nnz
 * entries a column.  Returns 0 when they hold and -1 when they do not.
 */
int csr_check(ptrdiff_t n_rows, ptrdiff_t n_cols, ptrdiff_t nnz,
              const ptrdiff_t *indptr, const ptrdiff_t *indices)
{
    if (indptr[0] != 0 || indptr[n_rows] > nnz)
        return -1;
    for (ptrdiff_t r = 0; r < n_rows; r++)
        if (indptr[r + 1] < indptr[r])
            return -1;
    for (ptrdiff_t p = 0; p < nnz; p++)
        if (indices[p] < 0 || indices[p] >= n_cols)
            return -1;
    return 0;
}

/* ---------------------------------------------------------------------
 * Sparse text input: the rows of load_sparse's format, from text[start]
 * to text[size].  Lines end in "\n", "\r\n" or "\r", and line r is row r
 * for r < n_rows.  A row is read here only when it is made of plain ASCII
 * pairs "col value" separated by spaces and tabs, where col is [0-9]+ in
 * 1..n_cols and value is [0-9+-.eE]+, at most 63 bytes, that strtod
 * reads whole without ERANGE; these are the tokens whose int() and float()
 * values C computes the same, since both round correctly (a locale whose
 * decimal point is not "." only makes strtod stop early, which declines).
 * Any other row is declined: it stores nothing, and its line start is
 * written as ~start (negative), for the caller to read it.  lines[r] is
 * the start of line r, and
 * lines[n_rows] the start of line n_rows (or size when there is none);
 * indptr[r + 1] counts the entries read up to row r.  Entries past cap
 * are counted but not written.  Returns the number of lines in the text.
 */
static int is_space(char c)
{
    return c == ' ' || c == '\t';
}

static int is_end(const char *p, const char *end)
{
    return p == end || *p == '\n' || *p == '\r';
}

static int is_number_byte(char c)
{
    return (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.'
        || c == 'e' || c == 'E';
}

/* Row text at p: reads its pairs from the ASCII tokens above, storing
 * indices[*nnz..] and data[*nnz..] below cap; 0 when it declines. */
static int sparse_row(const char *p, const char *end, ptrdiff_t n_cols,
                      ptrdiff_t cap, int32_t *indices, double *data,
                      ptrdiff_t *nnz)
{
    char token[64];
    for (;;) {
        while (p < end && is_space(*p))
            p++;
        if (is_end(p, end))
            return 1;
        ptrdiff_t col = 0;
        for (; !is_end(p, end) && !is_space(*p); p++) {
            if (*p < '0' || *p > '9')
                return 0;
            col = col * 10 + (*p - '0');
            if (col > n_cols)
                return 0;
        }
        if (col < 1)
            return 0;
        while (p < end && is_space(*p))
            p++;
        size_t len = 0;
        for (; !is_end(p, end) && !is_space(*p); p++, len++) {
            if (len + 1 == sizeof token || !is_number_byte(*p))
                return 0;
            token[len] = *p;
        }
        if (len == 0)
            return 0;
        token[len] = '\0';
        char *stop;
        errno = 0;
        double value = strtod(token, &stop);
        if (stop != token + len || errno)
            return 0;
        if (*nnz < cap) {
            indices[*nnz] = (int32_t)(col - 1);
            data[*nnz] = value;
        }
        (*nnz)++;
    }
}

ptrdiff_t parse_sparse(const char *text, ptrdiff_t start, ptrdiff_t size,
                       ptrdiff_t n_rows, ptrdiff_t n_cols, ptrdiff_t cap,
                       ptrdiff_t *lines, int64_t *indptr, int32_t *indices,
                       double *data)
{
    const char *p = text + start, *end = text + size;
    ptrdiff_t r = 0, nnz = 0;
    indptr[0] = 0;
    for (; p < end; r++) {
        if (r <= n_rows)
            lines[r] = p - text;
        if (r < n_rows) {
            ptrdiff_t row_start = nnz;
            if (!sparse_row(p, end, n_cols, cap, indices, data, &nnz)) {
                lines[r] = ~lines[r];
                nnz = row_start;
            }
            indptr[r + 1] = nnz;
        }
        while (!is_end(p, end))
            p++;
        if (p < end && *p++ == '\r' && p < end && *p == '\n')
            p++;
    }
    if (r <= n_rows)
        lines[r] = size;
    return r;
}

/* ---------------------------------------------------------------------
 * SMO's two row passes, 4 rows at a time under AVX2, for x86-64 CPUs that
 * have it; smo_solve calls them when the caller passes smo_avx2()'s 1.
 * They are built with the target attribute, under the flags of every other
 * loop, and nothing of them is inlined into smo_solve.  Each does the
 * scalar pass's IEEE operations on each row, in the same order, over the
 * rows below n rounded down to a multiple of 4, and returns that count;
 * smo_solve's scalar loop takes the rest.  Lane k of 4 takes rows k, k + 4,
 * ... and keeps its own value, row and sticky NaN by the scalar rule
 * !(u <= best); smo_lane then picks the lane the scalar rule would end on.
 */
int smo_avx2(void)
{
#if defined(__x86_64__)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return 0;
#endif
}

#if defined(__x86_64__)
#include <immintrin.h>

/* The lane of value v[k] at row t[k] that the scalar pick over the rows
 * of all 4 lanes ends on: the NaN at the lowest row, if any; otherwise the
 * largest value, or the least when least is set, at the lowest row among
 * lanes that are IEEE-equal (so of +0 and -0, the earlier row's). */
int smo_lane(const double *v, const int64_t *t, int least)
{
    int k = 0;
    for (int l = 1; l < 4; l++) {
        const int nan_l = isnan(v[l]), nan_k = isnan(v[k]);
        if (nan_l != nan_k ? nan_l
            : nan_l || v[l] == v[k] ? t[l] < t[k]
            : least ? v[l] < v[k] : v[l] > v[k])
            k = l;
    }
    return k;
}

/* All ones in lane k where flags[k] != 0, for 4 flag bytes.  Always
 * inlined, so it is never emitted as a function of its own. */
static inline __attribute__((always_inline, target("avx2")))
__m256d smo_flags(const unsigned char *flags)
{
    int32_t bytes;
    memcpy(&bytes, flags, sizeof bytes);
    return _mm256_castsi256_pd(_mm256_cmpgt_epi64(
        _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(bytes)),
        _mm256_setzero_si256()));
}

/* The pass that chooses j, into *j and *best.  A block with no violator
 * is skipped before its division. */
__attribute__((target("avx2")))
ptrdiff_t smo_choose_avx2(ptrdiff_t n, const unsigned char *low,
                          const double *yg, const double *diag,
                          const double *k_i, double d_i, double m_val,
                          ptrdiff_t *j, double *best)
{
    const ptrdiff_t n4 = n & ~(ptrdiff_t)3;
    const __m256d m = _mm256_set1_pd(m_val), di = _mm256_set1_pd(d_i);
    const __m256d two = _mm256_set1_pd(2.0), tiny = _mm256_set1_pd(1e-12);
    const __m256i four = _mm256_set1_epi64x(4);
    __m256d top = _mm256_set1_pd(-INFINITY);
    __m256i at = _mm256_setzero_si256(), row = _mm256_setr_epi64x(0, 1, 2, 3);
    for (ptrdiff_t t = 0; t < n4; t += 4, row = _mm256_add_epi64(row, four)) {
        const __m256d g = _mm256_loadu_pd(yg + t);
        const __m256d viol = _mm256_and_pd(smo_flags(low + t),
                                           _mm256_cmp_pd(g, m, _CMP_LT_OQ));
        if (!_mm256_movemask_pd(viol))
            continue;
        __m256d quad = _mm256_sub_pd(
            _mm256_add_pd(di, _mm256_loadu_pd(diag + t)),
            _mm256_mul_pd(two, _mm256_loadu_pd(k_i + t)));
        quad = _mm256_blendv_pd(tiny, quad,
                                _mm256_cmp_pd(quad, _mm256_setzero_pd(),
                                              _CMP_GT_OQ));
        __m256d b = _mm256_sub_pd(m, g);
        b = _mm256_div_pd(_mm256_mul_pd(b, b), quad);
        const __m256d take = _mm256_and_pd(viol, _mm256_andnot_pd(
            _mm256_cmp_pd(top, top, _CMP_UNORD_Q),
            _mm256_cmp_pd(b, top, _CMP_NLE_UQ)));
        top = _mm256_blendv_pd(top, b, take);
        at = _mm256_blendv_epi8(at, row, _mm256_castpd_si256(take));
    }
    double v[4];
    int64_t r[4];
    _mm256_storeu_pd(v, top);
    _mm256_storeu_si256((__m256i *)r, at);
    const int k = smo_lane(v, r, 0);
    *j = r[k];
    *best = v[k];
    return n4;
}

/* The pass that updates grad and yg and takes the next pick into *pick,
 * which it sets whole. */
__attribute__((target("avx2")))
ptrdiff_t smo_update_avx2(ptrdiff_t n, const double *y, const double *neg_y,
                          const double *k_i, const double *k_j, double s_i,
                          double s_j, const unsigned char *up,
                          const unsigned char *low, double *grad, double *yg,
                          struct smo_pick *pick)
{
    const ptrdiff_t n4 = n & ~(ptrdiff_t)3;
    const __m256d si = _mm256_set1_pd(s_i), sj = _mm256_set1_pd(s_j);
    const __m256d neg_inf = _mm256_set1_pd(-INFINITY);
    const __m256d pos_inf = _mm256_set1_pd(INFINITY);
    const __m256i four = _mm256_set1_epi64x(4);
    __m256d m_val = neg_inf, lo = pos_inf;
    __m256i m_at = _mm256_setzero_si256(), lo_at = m_at;
    __m256i row = _mm256_setr_epi64x(0, 1, 2, 3);
    for (ptrdiff_t t = 0; t < n4; t += 4, row = _mm256_add_epi64(row, four)) {
        const __m256d yt = _mm256_loadu_pd(y + t);
        const __m256d gr = _mm256_add_pd(
            _mm256_loadu_pd(grad + t),
            _mm256_add_pd(
                _mm256_mul_pd(yt, _mm256_mul_pd(_mm256_loadu_pd(k_i + t), si)),
                _mm256_mul_pd(yt,
                              _mm256_mul_pd(_mm256_loadu_pd(k_j + t), sj))));
        _mm256_storeu_pd(grad + t, gr);
        const __m256d g = _mm256_mul_pd(_mm256_loadu_pd(neg_y + t), gr);
        _mm256_storeu_pd(yg + t, g);
        const __m256d u = _mm256_blendv_pd(neg_inf, g, smo_flags(up + t));
        const __m256d take_m = _mm256_andnot_pd(
            _mm256_cmp_pd(m_val, m_val, _CMP_UNORD_Q),
            _mm256_cmp_pd(u, m_val, _CMP_NLE_UQ));
        m_val = _mm256_blendv_pd(m_val, u, take_m);
        m_at = _mm256_blendv_epi8(m_at, row, _mm256_castpd_si256(take_m));
        const __m256d l = _mm256_blendv_pd(pos_inf, g, smo_flags(low + t));
        const __m256d take_lo = _mm256_andnot_pd(
            _mm256_cmp_pd(lo, lo, _CMP_UNORD_Q),
            _mm256_cmp_pd(l, lo, _CMP_NGE_UQ));
        lo = _mm256_blendv_pd(lo, l, take_lo);
        lo_at = _mm256_blendv_epi8(lo_at, row, _mm256_castpd_si256(take_lo));
    }
    double v[4];
    int64_t r[4];
    _mm256_storeu_pd(v, m_val);
    _mm256_storeu_si256((__m256i *)r, m_at);
    int k = smo_lane(v, r, 0);
    pick->i = r[k];
    pick->m_val = v[k];
    pick->m_nan = isnan(v[k]);
    _mm256_storeu_pd(v, lo);
    _mm256_storeu_si256((__m256i *)r, lo_at);
    k = smo_lane(v, r, 1);
    pick->lo = v[k];
    pick->lo_nan = isnan(v[k]);
    return n4;
}
#endif

/* ---------------------------------------------------------------------
 * The training kernel's diagonal, and the kernel entries of
 * smo._poly_kernel's products, after the AVX2 passes so that every
 * function above keeps its address.
 *
 * kernel_diag: diag[i] = K(x_i, x_i) for every row, as row i holds it.
 * sparse_product sums that entry from each stored value of x_i, in stored
 * order, times each of x_i's stored values in the same column, in stored
 * order: the run of row i in that column of the transposed rows, whose
 * rows ascend and keep each row's stored order.  So does this loop, which
 * finds the run by bisection instead of computing the row.
 */
void kernel_diag(struct smo_kernel *k)
{
    for (ptrdiff_t i = 0; i < k->n; i++) {
        double sum = 0.0;
        for (ptrdiff_t a = k->xp[i]; a < k->xp[i + 1]; a++) {
            const ptrdiff_t end = k->tp[k->xi[a] + 1];
            ptrdiff_t lo = k->tp[k->xi[a]], hi = end;
            while (lo < hi) {
                const ptrdiff_t mid = lo + (hi - lo) / 2;
                if (k->ti[mid] < i)
                    lo = mid + 1;
                else
                    hi = mid;
            }
            for (; lo < end && k->ti[lo] == i; lo++) {
                const double p = k->xx[a] * k->tx[lo];
                sum = isnan(p) ? p : sum + p;
            }
        }
        k->diag[i] = smo_entry(sum, k->degree);
    }
}

/* kernel_entries: the count products at v, in place, as kernel entries
 * (smo_entries). */
void kernel_entries(ptrdiff_t count, ptrdiff_t degree, double *v)
{
    smo_entries(v, count, degree);
}
