/* The step loop of beamstops.steppers.run, for the runs that close each step
 * at the tip: signorini runs with numeric stops, linear runs (the same step
 * with open stops) and penalty runs of k members stepped as one block.
 *
 * beamstops_step_rows steps rows r .. rows - 1 of a load block's buffers.
 * Row r of u and au takes u^{n+1} and A u^{n+1}, and F^n goes to row r of f
 * (or to its one row), where
 *
 *     F^n = B u^n - A u^{n-1} + dt^2 G^n
 *
 * from rows r - 1 and r - 2 and row r - 2 of g.  The tip closure then
 * solves A u^{n+1} = F^n plus the contact terms, and one more banded product
 * forms A u^{n+1}, which the run carries.  The products are the BLAS dsbmv
 * and the solves the LAPACK dpbtrs that scipy's wrappers call, passed in by
 * address, and the closures make the operations of the Python steps that
 * the tests keep as their oracle, in the same order; the file is compiled
 * with -ffp-contract=off, so no product and sum fuse into one rounding.
 * So every row is theirs bit for bit.  No step fails: a non-finite entry
 * steps on, and the run's fold ends its member.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef void sbmv_t(char *uplo, int *n, int *k, double *alpha, double *a, int *lda,
                    double *x, int *incx, double *beta, double *y, int *incy);
typedef void pbtrs_t(char *uplo, int *n, int *kd, int *nrhs, double *ab, int *ldab,
                     double *b, int *ldb, int *info);

/* One run's context; beamstops/steploop.py mirrors it field by field. */
typedef struct {
    sbmv_t *sbmv;
    pbtrs_t *pbtrs;
    double *u, *au, *f, *g;  /* the block's rows; f_stride 0 keeps every F^n in row 0 */
    int64_t f_stride;
    double *a_band, *b_band; /* A and B for the k members, upper band (bw + 1, n) */
    double *factor;          /* A's Cholesky factor, upper band (bw + 1, ndof) */
    double *w;               /* the pinned closure's A^{-1} e_c; NULL for penalty */
    double *inv_eps, *bump;  /* penalty, per member: its stiffness and dt^2 beta inv_eps */
    double **bumped;         /* penalty, per member: the factor of A + bump e_c e_c^T */
    int64_t *counts;         /* banded steps, block solves, products, then per member its bumped solves */
    double lower, upper;     /* the tip's stops */
    double dt2, beta;
    int32_t n, ndof, width, k, bw, tip;
} loop_t;

static char UPPER = 'U';
static int ONE = 1;

static int past(const loop_t *L, double tip)
{
    return tip > L->upper || tip < L->lower; /* a NaN tip is not */
}

static double spring(const loop_t *L, int m, double tip)
{
    if (tip > L->upper)
        return -L->inv_eps[m] * (tip - L->upper);
    if (tip < L->lower)
        return -L->inv_eps[m] * (tip - L->lower);
    return 0.0;
}

/* dt^2 times the springs' explicit part of member m's step */
static double history(const loop_t *L, int m, double prev, double curr)
{
    return L->dt2 * ((1.0 - 2.0 * L->beta) * spring(L, m, curr) + L->beta * spring(L, m, prev));
}

/* Solve, and if the tip left its stops move along w onto the one it passed. */
static void pinned(loop_t *L, const double *f, double *u)
{
    int n = L->ndof, ld = L->bw + 1, info;
    memcpy(u, f, (size_t)n * sizeof *u);
    L->pbtrs(&UPPER, &n, &L->bw, &ONE, L->factor, &ld, u, &n, &info);
    L->counts[1] += 1;
    double uc = u[L->tip];
    if (!(uc > L->upper || uc < L->lower))
        return;
    double bound = uc > L->upper ? L->upper : L->lower;
    double s = (bound - uc) / L->w[L->tip];
    for (int i = 0; i < n; i++)
        u[i] += L->w[i] * s;
    u[L->tip] = bound;
}

/* The k members' step: +0.0 at every tip, or F plus the history where a tip
 * of u^{n-1} or u^n is past a stop; one solve with A for all; a bumped
 * re-solve from F for each member whose new tip is past a stop, and NaN for
 * a member whose re-solved tip falls on the free side of that stop.  A
 * member's history is made once per step, and only where it is needed. */
static void penalty(loop_t *L, const double *f, const double *up, const double *uc, double *u)
{
    int n = L->ndof, k = L->k, c = L->tip, ld = L->bw + 1, info;
    double hist[k];
    char pressing[k];
    for (int m = 0; m < k; m++) {
        size_t at = (size_t)m * L->width;
        memcpy(u + at, f + at, (size_t)n * sizeof *u);
        pressing[m] = past(L, up[at + c]) || past(L, uc[at + c]);
        if (pressing[m]) {
            hist[m] = history(L, m, up[at + c], uc[at + c]);
            u[at + c] = f[at + c] + hist[m];
        } else {
            u[at + c] += 0.0;
        }
    }
    L->pbtrs(&UPPER, &n, &L->bw, &L->k, L->factor, &ld, u, &L->width, &info);
    L->counts[1] += 1;
    for (int m = 0; m < k; m++) {
        size_t at = (size_t)m * L->width;
        double *um = u + at;
        if (!past(L, um[c]) || L->bump[m] == 0.0)
            continue;
        double bound = um[c] > L->upper ? L->upper : L->lower;
        memcpy(um, f + at, (size_t)n * sizeof *um);
        um[c] += pressing[m] ? hist[m] : history(L, m, up[at + c], uc[at + c]);
        um[c] += L->bump[m] * bound;
        L->pbtrs(&UPPER, &n, &L->bw, &ONE, L->bumped[m], &ld, um, &n, &info);
        L->counts[3 + m] += 1;
        double tiny = 1e-12 * (fabs(bound) > 1.0 ? fabs(bound) : 1.0);
        double tip = um[c];
        if (!(bound == L->upper ? tip >= bound - tiny : tip <= bound + tiny))
            for (int i = 0; i < n; i++)
                um[i] = NAN;
    }
}

/* Steps rows r .. rows - 1. */
void beamstops_step_rows(loop_t *L, int r, int rows)
{
    int n = L->n, ld = L->bw + 1;
    double one = 1.0, zero = 0.0;
    for (; r < rows; r++) {
        double *u = L->u + (size_t)r * n, *f = L->f + (size_t)r * L->f_stride;
        const double *au = L->au + (size_t)(r - 2) * n, *g = L->g + (size_t)(r - 2) * n;
        L->sbmv(&UPPER, &n, &L->bw, &one, L->b_band, &ld, u - n, &ONE, &zero, f, &ONE);
        for (int i = 0; i < n; i++)
            f[i] = f[i] - au[i] + g[i];
        if (L->w)
            pinned(L, f, u);
        else
            penalty(L, f, u - 2 * (size_t)n, u - n, u);
        L->sbmv(&UPPER, &n, &L->bw, &one, L->a_band, &ld, u, &ONE, &zero,
                L->au + (size_t)r * n, &ONE);
        L->counts[0] += 1;
        L->counts[2] += 2;
    }
}
