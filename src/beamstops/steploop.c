/* The step loop of beamstops.steppers.run, for the runs that close each step
 * at the tip: signorini runs with numeric stops, linear runs (the same step
 * with open stops) and penalty runs of k members stepped as one block.
 *
 * beamstops_step_rows steps rows r .. rows - 1 of a load block's buffers.
 * A row holds the k members' states one after another, member m in its
 * entries [m ndof, (m + 1) ndof).  Row r of u and au takes u^{n+1} and
 * A u^{n+1}, and F^n goes to the one F row, where, for each member,
 *
 *     F^n = (B u^n - A u^{n-1}) + dt^2 G^n
 *
 * from rows r - 1 and r - 2.  dt^2 G^n, which the members share, is row
 * r - 2 of g, or, for the loads of signorini and linear runs without
 * f_tilde, that row's two coefficients over the basis, combined as
 * LoadAssembler.from_coefficients combines them.  The tip closure then
 * solves A u^{n+1} = F^n plus the contact terms, and one more banded
 * product forms A u^{n+1}, which the run carries; a signorini run also gets
 * the two figures per row that its contact audit reduces, from
 * A u^{n+1} - F^n.  The products go one member at a time, so a member's NaN
 * or infinity reaches no other member.  The products and solves are
 * the file's own kernels, sbmv and pbtrs, which round as OpenBLAS's dsbmv
 * and LAPACK's dpbtrs over it do (the BLAS and LAPACK under scipy's
 * BandedSpd.matvec and BandedCholesky.solve) with the kernels that scipy's
 * OpenBLAS picks for the CPU, SkylakeX's or Haswell's and Sandybridge's;
 * the loads, the right-hand side, the figures and the closures make the
 * operations of the numpy code that the tests keep as their oracle, in the
 * same order.  The file is compiled with -ffp-contract=off, so no product
 * and sum fuse into one rounding unless a kernel fuses it in asm.  So every
 * row is the oracle's bit for bit.  No step fails: a non-finite entry steps
 * on, and the run's fold ends its member.
 *
 * beamstops_csv writes a trajectory's records as the lines of its CSV, each
 * cell the bytes of Python's '%.17g' % x, for Trajectory.to_csv.
 */
#ifndef __x86_64__
#error "the step loop's kernels are x86-64 FMA code: they make the roundings of OpenBLAS's x86 kernels"
#endif
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

/* Inlined into the copies for a beam's band, whose loops over a band's
 * entries and over a group's sides are then of fixed length, unrolled, and
 * into the copies for each of the two roundings below, whose branches on
 * fused then fold away.  A deeper unroll would only grow the other copies,
 * and the compiler's peak memory with them. */
#define INLINE static inline __attribute__((always_inline))
#define UNROLL _Pragma("GCC unroll 4")

/* The kernels' roundings, each the instruction and operand roles of
 * OpenBLAS's kernel, in asm: x86 returns the first NaN operand, which fixes
 * a NaN's sign, and the compiler reorders the operands of a commutative
 * operation freely.  Sums from 0.0 are ddot's tail, fused updates daxpy's.
 * scipy's OpenBLAS picks its ddot and daxpy by CPU: the SkylakeX ones fuse
 * each multiply-add into one rounding (fused 1); the Haswell and Sandybridge
 * ones, which CPUs with FMA but without AVX-512 run, round the product and
 * then the sum (fused 0). */

/* a b, as vmulsd: a's NaN first */
INLINE double mul(double a, double b)
{
    double product;
    __asm__("vmulsd %2, %1, %0" : "=x"(product) : "x"(a), "x"(b));
    return product;
}

/* a + b, as vaddsd, also dsbmv's add of the dot to y: a's NaN first */
INLINE double add(double a, double b)
{
    double sum;
    __asm__("vaddsd %2, %1, %0" : "=x"(sum) : "x"(a), "x"(b));
    return sum;
}

/* acc + b c, as ddot's vfmadd231sd: the first NaN of acc, b, c */
INLINE double dot_step(int fused, double acc, double b, double c)
{
    if (!fused)
        return add(acc, mul(b, c));
    __asm__("vfmadd231sd %2, %1, %0" : "+x"(acc) : "x"(b), "x"(c));
    return acc;
}

/* b a + c, as daxpy's vfmadd213sd: the first NaN of a, b, c */
INLINE double axpy_step(int fused, double a, double b, double c)
{
    if (!fused)
        return add(mul(b, a), c);
    __asm__("vfmadd213sd %2, %1, %0" : "+x"(a) : "x"(b), "x"(c));
    return a;
}

/* Row j of A x, with A in upper band storage a (bw + 1, n), A[i][j] at
 * a[j (bw + 1) + bw + i - j] for i <= j: the ddot of the row's entries left
 * of the diagonal, from column lo on, added to the diagonal product, then
 * the entries right of it, up to column hi, fused in one at a time. */
INLINE double sbmv_row(int fused, int bw, const double *a, const double *x, int j, int lo, int hi)
{
    int ld = bw + 1;
    const double *col = a + (size_t)j * ld + bw - j; /* col[i] = A[i][j] */
    double dot = 0.0;
    UNROLL for (int i = lo; i < j; i++)
        dot = dot_step(fused, dot, x[i], col[i]);
    double s = add(dot, axpy_step(fused, col[j], x[j], 0.0));
    UNROLL for (int c = j + 1; c <= hi; c++)
        s = axpy_step(fused, a[(size_t)c * ld + bw + j - c], x[c], s);
    return s;
}

/* The rows that the band cuts off at its ends, and between them the rows
 * of 2 bw + 1 entries, whose loops have a fixed length. */
INLINE void sbmv_rows(int fused, int n, int bw, const double *a, const double *x, double *y)
{
    int j = 0;
    for (; j < n && j < bw; j++)
        y[j] = sbmv_row(fused, bw, a, x, j, 0, j + bw < n - 1 ? j + bw : n - 1);
    for (; j < n - bw; j++)
        y[j] = sbmv_row(fused, bw, a, x, j, j - bw, j + bw);
    for (; j < n; j++)
        y[j] = sbmv_row(fused, bw, a, x, j, j - bw, n - 1);
}

/* y = A x for the k vectors x + m n, into y + m n, each as dsbmv_U with
 * alpha 1 and beta 0 rounds it, for bw up to 14: OpenBLAS's ddot and daxpy
 * take their scalar tails below 16 entries, and a band column has bw + 1.
 * dsbmv walks A by columns, each one daxpy into y and one ddot; here each
 * row sums in registers, in the same roundings.  Every row sum starts from
 * +0.0, so no entry of y is -0.0.  A beam's band, bw 3, has its own copy
 * for each rounding, with its loops unrolled. */
static void sbmv(int fused, int k, int n, int bw, const double *a, const double *x, double *y)
{
    for (size_t at = 0; at < (size_t)k * n; at += n)
        if (bw != 3)
            sbmv_rows(fused, n, bw, a, x + at, y + at);
        else if (fused)
            sbmv_rows(1, n, 3, a, x + at, y + at);
        else
            sbmv_rows(0, n, 3, a, x + at, y + at);
}

/* Row j of the forward solve U^T x = b, U in upper band storage u: b_j less
 * the ddot of U's column j with x from row lo on, divided by U_jj.  prev is
 * x_{j-1}, which the row reads from a register rather than its store. */
INLINE double forward_row(int fused, int bw, const double *u, const double *x, int j, int lo, double prev)
{
    const double *col = u + (size_t)j * (bw + 1) + bw - j;
    if (lo == j)
        return x[j] / col[j];
    double dot = 0.0;
    UNROLL for (int i = lo; i < j - 1; i++)
        dot = dot_step(fused, dot, x[i], col[i]);
    return (x[j] - dot_step(fused, dot, prev, col[j - 1])) / col[j];
}

/* Row j of the backward solve U x = y: y_j with U's row j times -x fused in
 * from column hi down to j + 1, as dtbsv_NUN's daxpy columns reach it, then
 * divided by U_jj.  next is x_{j+1}. */
INLINE double backward_row(int fused, int bw, const double *u, const double *x, int j, int hi, double next)
{
    int ld = bw + 1;
    double s = x[j];
    UNROLL for (int c = hi; c > j + 1; c--)
        s = axpy_step(fused, u[(size_t)c * ld + bw + j - c], -x[c], s);
    if (hi > j)
        s = axpy_step(fused, u[(size_t)(j + 1) * ld + bw - 1], -next, s);
    return s / u[(size_t)j * ld + bw];
}

/* The g <= 4 right-hand sides b + m n, advancing together, row by row,
 * so that their chains of divisions overlap; each side's last row is kept
 * in last[m].  The rows that the band cuts off come first in each solve. */
INLINE void pbtrs_group(int fused, int n, int bw, const double *u, double *b, int g)
{
    double last[4] = {0.0, 0.0, 0.0, 0.0};
    int j = 0;
    for (; j < n && j < bw; j++)
        UNROLL for (int m = 0; m < g; m++)
            b[(size_t)m * n + j] = last[m] = forward_row(fused, bw, u, b + (size_t)m * n, j, 0, last[m]);
    for (; j < n; j++)
        UNROLL for (int m = 0; m < g; m++)
            b[(size_t)m * n + j] = last[m] = forward_row(fused, bw, u, b + (size_t)m * n, j, j - bw, last[m]);
    for (j = n - 1; j >= 0 && j > n - 1 - bw; j--)
        UNROLL for (int m = 0; m < g; m++)
            b[(size_t)m * n + j] = last[m] = backward_row(fused, bw, u, b + (size_t)m * n, j, n - 1, last[m]);
    for (; j >= 0; j--)
        UNROLL for (int m = 0; m < g; m++)
            b[(size_t)m * n + j] = last[m] = backward_row(fused, bw, u, b + (size_t)m * n, j, j + bw, last[m]);
}

/* One group of g sides, 4 or 1, in its copy: a beam's band has one for each
 * group size and rounding, with its loops unrolled. */
static void pbtrs_sides(int fused, int n, int bw, const double *u, double *b, int g)
{
    if (bw != 3)
        pbtrs_group(fused, n, bw, u, b, 1);
    else if (fused && g == 4)
        pbtrs_group(1, n, 3, u, b, 4);
    else if (fused)
        pbtrs_group(1, n, 3, u, b, 1);
    else if (g == 4)
        pbtrs_group(0, n, 3, u, b, 4);
    else
        pbtrs_group(0, n, 3, u, b, 1);
}

/* Solves U^T U x = b in place for the k right-hand sides b + m n, with U
 * the Cholesky factor in upper band storage u (bw + 1, n), as dpbtrs does
 * with dtbsv_TUN and then dtbsv_NUN for each side, for bw up to 14.  The
 * sides are independent: with a beam's band they go in groups of four, the
 * rest one at a time. */
static void pbtrs(int fused, int n, int bw, const double *u, double *b, int k)
{
    int m = 0;
    for (; bw == 3 && m + 4 <= k; m += 4)
        pbtrs_sides(fused, n, bw, u, b + (size_t)m * n, 4);
    for (; m < k; m++)
        pbtrs_sides(fused, n, bw, u, b + (size_t)m * n, 1);
}

/* Entry i of the load c0 b0 + c1 b1, as LoadAssembler.from_coefficients
 * rounds it: c0 b0, then c1 b1 added to it.  numpy's multiply and add
 * return their first operand's NaN in their vector loops, as mul and add
 * do; the entries that their loops leave to a tail (the last n mod 8 with
 * AVX-512) return the second's, which shows only where both operands are
 * NaNs of different signs. */
INLINE double load(double c0, double c1, double b0, double b1)
{
    return add(mul(c0, b0), mul(c1, b1));
}

/* The contact audit's two figures of a step's residual A u - F: the
 * reaction at the tip, and the largest |residual| off it, NaN once one is,
 * from the 0.0 that the audit puts at the tip. */
INLINE void audit_figures(int n, int tip, const double *au, const double *f, double *out)
{
    double worst = 0.0;
    for (int i = 0; i < n; i++) {
        double r = fabs(au[i] - f[i]);
        if (i != tip && !(r <= worst)) {
            worst = r;
            if (r != r)
                break;
        }
    }
    out[0] = au[tip] - f[tip];
    out[1] = worst;
}

/* The kernels, for the tests to compare with OpenBLAS's and numpy's; the
 * product is also the one of the fold's energies, steploop.sbmv. */
void beamstops_sbmv(int fused, int k, int n, int bw, const double *a, const double *x, double *y)
{
    sbmv(fused, k, n, bw, a, x, y);
}

void beamstops_pbtrs(int fused, int n, int bw, const double *u, double *b, int k)
{
    pbtrs(fused, n, bw, u, b, k);
}

/* The loads of rows (rows, 2) of coefficients over basis (2, n), into g (rows, n). */
void beamstops_loads(int rows, int n, const double *c, const double *basis, double *g)
{
    for (int r = 0; r < rows; r++)
        for (int i = 0; i < n; i++)
            g[(size_t)r * n + i] = load(c[2 * r], c[2 * r + 1], basis[i], basis[n + i]);
}

/* The audit's figures of rows (rows, n) of A u and F, into out (rows, 2). */
void beamstops_figures(int rows, int n, int tip, const double *au, const double *f, double *out)
{
    for (int r = 0; r < rows; r++)
        audit_figures(n, tip, au + (size_t)r * n, f + (size_t)r * n, out + 2 * (size_t)r);
}

/* Whether this CPU runs the kernels' FMA instructions. */
int beamstops_has_fma(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("fma");
}

/* One run's context; beamstops/steploop.py mirrors it field by field. */
typedef struct {
    double *u, *au, *f;      /* the block's (rows, n) rows of u and A u, the one F row */
    double *g;               /* the (rows, ndof) loads, or their (rows, 2) coefficients */
    double *basis;           /* NULL, or the (2, ndof) basis of those coefficients */
    double *figures;         /* NULL, or the (rows, 2) audit figures of each step */
    double *a_band, *b_band; /* A and B, upper band (bw + 1, ndof) */
    double *factor;          /* A's Cholesky factor, upper band (bw + 1, ndof) */
    double *w;               /* the pinned closure's A^{-1} e_c; NULL for penalty */
    double *inv_eps, *bump;  /* penalty, per member: its stiffness and dt^2 beta inv_eps */
    double **bumped;         /* penalty, per member: the factor of A + bump e_c e_c^T */
    int64_t *counts;         /* banded steps, block solves, products, then per member its bumped solves */
    double lower, upper;     /* the tip's stops */
    double dt2, beta;
    int32_t n, ndof, k, bw, tip;  /* n = k ndof */
    int32_t fused;           /* the roundings of scipy's OpenBLAS: 1 SkylakeX, 0 Haswell */
} loop_t;

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
    int n = L->ndof;
    memcpy(u, f, (size_t)n * sizeof *u);
    pbtrs(L->fused, n, L->bw, L->factor, u, 1);
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

/* The k members' step: F, plus the history at a tip where a tip of u^{n-1}
 * or u^n is past a stop; one solve with A for all; a bumped re-solve from F
 * for each member whose new tip is past a stop, and NaN for a member whose
 * re-solved tip falls on the free side of that stop.  A member's history is
 * made once per step, and only where it is needed. */
static void penalty(loop_t *L, const double *f, const double *up, const double *uc, double *u)
{
    int n = L->ndof, k = L->k, c = L->tip;
    double hist[k];
    char pressing[k];
    memcpy(u, f, (size_t)k * n * sizeof *u);
    for (int m = 0; m < k; m++) {
        size_t at = (size_t)m * n + c;
        pressing[m] = past(L, up[at]) || past(L, uc[at]);
        if (pressing[m]) {
            hist[m] = history(L, m, up[at], uc[at]);
            u[at] = f[at] + hist[m];
        }
    }
    pbtrs(L->fused, n, L->bw, L->factor, u, k);
    L->counts[1] += 1;
    for (int m = 0; m < k; m++) {
        size_t at = (size_t)m * n;
        double *um = u + at;
        if (!past(L, um[c]) || L->bump[m] == 0.0)
            continue;
        double bound = um[c] > L->upper ? L->upper : L->lower;
        memcpy(um, f + at, (size_t)n * sizeof *um);
        um[c] += pressing[m] ? hist[m] : history(L, m, up[at + c], uc[at + c]);
        um[c] += L->bump[m] * bound;
        pbtrs(L->fused, n, L->bw, L->bumped[m], um, 1);
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
    int n = L->n, ndof = L->ndof;
    double *f = L->f;
    const double *b = L->basis;
    for (; r < rows; r++) {
        double *u = L->u + (size_t)r * n, *au = L->au + (size_t)r * n;
        const double *au_prev = au - 2 * (size_t)n;
        const double *g = L->g + (size_t)(r - 2) * (b ? 2 : ndof);
        sbmv(L->fused, L->k, ndof, L->bw, L->b_band, u - n, f);
        for (int at = 0; at < n; at += ndof)
            if (b)
                for (int i = 0; i < ndof; i++)
                    f[at + i] = add(f[at + i] - au_prev[at + i], load(g[0], g[1], b[i], b[ndof + i]));
            else
                for (int i = 0; i < ndof; i++)
                    f[at + i] = add(f[at + i] - au_prev[at + i], g[i]);
        if (L->w)
            pinned(L, f, u);
        else
            penalty(L, f, u - 2 * (size_t)n, u - n, u);
        sbmv(L->fused, L->k, ndof, L->bw, L->a_band, u, au);
        if (L->figures)
            audit_figures(ndof, L->tip, au, f, L->figures + 2 * (size_t)r);
        L->counts[0] += 1;
        L->counts[2] += 2;
    }
}

/* The trajectory CSV.  A cell is written as Python's '%.17g' % x writes it:
 * 17 significant digits, correctly rounded, ties to even; "nan" for a NaN
 * of either sign, "inf", "-inf" and "-0"; fixed notation from 1e-4 up to
 * 1e17, exponent notation with at least two exponent digits outside, and
 * no trailing zeros.  The digits come from one or two long double products
 * or quotients with exact powers of ten, and from libc's exact snprintf
 * where those cannot tell them. */

/* 10^s for s = 0 .. 27, exact in long double: 5^27 < 2^63 */
static const long double POW10[28] = {
    1e0L, 1e1L, 1e2L, 1e3L, 1e4L, 1e5L, 1e6L, 1e7L, 1e8L, 1e9L, 1e10L, 1e11L, 1e12L, 1e13L,
    1e14L, 1e15L, 1e16L, 1e17L, 1e18L, 1e19L, 1e20L, 1e21L, 1e22L, 1e23L, 1e24L, 1e25L, 1e26L, 1e27L};

/* The 17 significant digits of a finite a > 0, as a = d 10^(e - 16) with
 * 10^16 <= d < 10^17 rounded to an integer, ties to even; 0 where they
 * cannot be told apart from y = a 10^(16 - e).  y is made in long double
 * from exact powers of ten: with one product or quotient for a shift
 * |16 - e| up to 27, two up to 54.  Below 2^57 one rounding moves y by at
 * most 2^(56 - LDBL_MANT_DIG), two by less than 3 times that, so floor(y)
 * and the rounding of y are those of the exact a 10^(16 - e) wherever
 * frac(y) is farther than a margin of 2 or 4 times that from 0, 1/2 and 1.
 * The first guess at e, floor(e2 log10(2)) for a's binary exponent e2, is
 * e or e - 1.  Where long double is double, no y passes. */
static int digits17(double a, uint64_t *d, int *e)
{
    uint64_t bits;
    memcpy(&bits, &a, sizeof bits);
    int e2 = (int)(bits >> 52) - 1023;
    if (e2 == -1023)
        return 0; /* subnormal */
    int e10 = (e2 * 78913) >> 18; /* floor(e2 log10(2)) for |e2| < 1650 */
    for (int tries = 0; tries < 2; tries++) {
        int s = 16 - e10, shift = s < 0 ? -s : s, two = shift > 27;
        if (shift > 54)
            return 0;
        long double y = a, p = POW10[two ? shift - 27 : shift];
        if (two)
            y = s > 0 ? y * POW10[27] : y / POW10[27];
        y = s > 0 ? y * p : y / p;
        if (y < 1e16L || y >= 1e17L) {
            e10 += y < 1e16L ? -1 : 1;
            continue;
        }
        long double margin = (two ? 0x1p58L : 0x1p57L) * LDBL_EPSILON / 2;
        uint64_t i = (uint64_t)y;
        long double frac = y - i;
        if (frac < margin || frac > 1.0L - margin || (frac > 0.5L - margin && frac < 0.5L + margin))
            return 0;
        i += frac > 0.5L;
        if (i == 100000000000000000ULL) {
            i /= 10;
            e10++;
        }
        *d = i;
        *e = e10;
        return 1;
    }
    return 0;
}

/* x as '%.17g' writes it, at p, in at most 24 bytes; returns its end. */
static char *cell(char *p, double x)
{
    if (x != x) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (signbit(x))
        *p++ = '-';
    double a = fabs(x);
    if (a == INFINITY) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (a == 0.0) {
        *p++ = '0';
        return p;
    }
    uint64_t d;
    int e;
    if (!digits17(a, &d, &e))
        return p + snprintf(p, 25, "%.17g", a);
    char dig[17];
    for (int i = 16; i >= 0; i--, d /= 10)
        dig[i] = (char)('0' + d % 10);
    int last = 16; /* the last digit that is not a trailing zero */
    while (dig[last] == '0')
        last--;
    int sci = e < -4 || e >= 17, point = sci ? 0 : e; /* digits before the point, less one */
    if (point < 0) {
        memcpy(p, "0.000", 1 - point);
        memcpy(p + 1 - point, dig, last + 1);
        p += 2 - point + last;
    } else {
        memcpy(p, dig, point + 1);
        p += point + 1;
        if (last > point) {
            *p++ = '.';
            memcpy(p, dig + point + 1, last - point);
            p += last - point;
        }
    }
    if (sci) { /* e from -38 to 70, of two digits */
        int ae = e < 0 ? -e : e;
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        *p++ = (char)('0' + ae / 10);
        *p++ = (char)('0' + ae % 10);
    }
    return p;
}

/* The records (cols, rows) as rows lines of cols cells, each cell followed
 * by ',' or, the last of its line, '\n', into out, which holds 25 bytes a
 * cell; returns the length written. */
size_t beamstops_csv(int cols, int rows, const double *records, char *out)
{
    char *p = out;
    for (int r = 0; r < rows; r++)
        for (int c = 0; c < cols; c++) {
            p = cell(p, records[(size_t)c * rows + r]);
            *p++ = c + 1 < cols ? ',' : '\n';
        }
    return (size_t)(p - out);
}
