"""Vectorised batch evaluation of x -> A * x^d.

Three kernels, bit-identical on canonical residues:

  * "c"      - modular-arithmetic kernel in C, odd moduli below 2**31.
    Rows are processed in chunks of 2,048 so the exponent-bit loop sits
    outside tight SIMD-friendly inner loops, and the matrix product is fused
    in so the powered batch is never materialised.  A chunk is read 16 rows
    at a time into one buffer per column, not a column at a time with the
    batch's row stride.  Each column is raised left to right by sliding
    windows: a table of x**2 and the odd powers x, x**3, .., x**(2**k - 1),
    then one squaring per exponent bit below the first window and one table
    multiply per later window; the first window is copied from the table.
    The width k in {1, 2, 3} is picked per column in C, the one whose
    windows take the fewest products for that exponent (the smallest on a
    tie).  The kernel picks its reduction from q, once per call, in C:
      - q = 2**31 - 1 (a Mersenne prime): every product t <= 2**62 - 2 is
        reduced with no multiply by one fold, r = (t & q) + (t >> 31), which
        keeps the residue because 2**31 = 1 mod q and leaves r <= 2q - 1,
        then one conditional subtraction of q.  Every product the kernel
        forms is at most q**2 = 2**62 - 2**32 + 1, inside that range.
        Values stay in normal form throughout.
      - every other odd q < 2**31: Montgomery products with R = 2**32, the
        powers kept in Montgomery form.
    The two loop bodies are one inlined C function compiled twice with a
    constant flag, so they cannot drift apart.  The system C compiler builds
    the kernel on first use; the shared object is cached once per machine
    and loaded with ctypes.
  * "numpy"  - column-wise square-and-multiply in uint64, moduli below 2**32.
    The fast path for 2**31 <= q < 2**32, and the fallback when the C kernel
    cannot be built or loaded.
  * "python" - plain loops over Python ints, any supported modulus: the route
    for q >= 2**32, and the oracle the other two are tested against.

`batch_route(q)` is the one choice of kernel: the fastest that handles q
and loads, named with the reduction of the C kernel: "c (mersenne)",
"c (montgomery)", "numpy" or "python".  `batch_apply` checks every input
once, the batch's shape, the lengths of the exponents and rows and the range
of every entry, and then runs that kernel; the kernels check no input
themselves.

The same C source holds the count kernel, `affext_count_blocks`: one
compiled loop over a run of direction bases of one pivot pattern and the
parameter grid, which it walks by an odometer over k value rows (the grid
itself is never stored), in one of two loops.  The point loop forms per
basis only the n - k free coordinates of t.B mod q, and per point looks up
only those in the A-weighted power tables; the pivot terms come from the
caller, summed once per grid row.  Its body is specialised for (m, n - k)
in {1, 2} x {0, 1, 2}, with one generic body for every other shape.  The
line loop counts each line along parameter 0 at once: the histogram of a
line depends only on basis row 0 and the line's class of free coordinates,
up to a cyclic shift by the pivot terms of the other parameters, so one
table per class, rebuilt when row 0 changes, turns q scattered increments
into q contiguous adds.  The caller decides which loop runs and passes it
as a flag; both give the same integers.

The third function, `affext_write_rows`, writes int64 cells in decimal and
copies every other cell from a string table, one buffer of fixed size at a
time, taking each check's rows in turn with one cursor per check, in the
sweep order the caller sorted once.  The fourth, `affext_unique64`, finds
the distinct bit patterns of a float column by one hash table, so the
writer's caller formats each distinct value once.

This is the only module that calls into the shared object, and it makes
every choice between a C function and its fallback.  The four functions
load or fail together (one `c_build()`), and `c_unavailable()` alone decides
each route: `batch_route(q)`, `count_route()` for `count_blocks` (else a
numpy loop) and `report_route()` for `write_rows` with `affext_unique64`
(else a Python join of slices, with `np.unique`).  A failed build warns
once per process, in one text for all four, and the fallbacks run instead,
with the same results and the same bytes.
"""

from __future__ import annotations

import functools
import operator
import os
import platform
import shutil
import tempfile
import warnings
import zlib
from dataclasses import dataclass
from itertools import repeat

import numpy as np

_C_MAX_Q = 1 << 31  # Montgomery kernel uses R = 2**32 and 64-bit products
_MERSENNE31 = (1 << 31) - 1  # the modulus the C kernel reduces by folding
_NUMPY_MAX_Q = 1 << 32  # uint64 holds (q-1)**2 exactly below 2**32

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define CHUNK 2048 /* rows per chunk; keeps the power buffer L2-resident */

/* Montgomery reduction with R = 2**32: t * R^-1 mod q, for t < q * R. */
static inline uint32_t redc(uint64_t t, uint32_t q, uint32_t qneg)
{
    uint32_t mm = (uint32_t)t * qneg;
    uint32_t v = (uint32_t)((t + (uint64_t)mm * q) >> 32);
    return v >= q ? v - q : v;
}

#define MERSENNE31 0x7fffffffu /* 2**31 - 1 */

/* t mod 2**31 - 1 with no multiply, for t <= 2**62 - 2: 2**31 = 1 mod q, so
   adding the bits above 31 to the bits below is a fold that keeps the
   residue.  It leaves r <= 2q - 1 (r = 2q only at t = 2**62 - 1 =
   q * (2**31 + 1)), and one conditional subtraction of q makes r canonical.
   The range holds every product the kernel forms: none exceeds q**2 =
   2**62 - 2**32 + 1, and 2**62 - 1 is no product of two values <= q. */
static inline uint32_t fold31(uint64_t t)
{
    uint32_t r = (uint32_t)(t & MERSENNE31) + (uint32_t)(t >> 31);
    return r >= MERSENNE31 ? r - MERSENNE31 : r;
}

/* t mod q by the reduction eval_body was inlined with: a fold if MERS,
   else a Montgomery product, t * R^-1 mod q. */
static inline __attribute__((always_inline)) uint32_t
mulmod(const int MERS, uint64_t t, uint32_t q, uint32_t qneg)
{
    return MERS ? fold31(t) : redc(t, q, qneg);
}

/* Sliding windows of width k over e > 0, read from the top bit down.  A
   window starts at a set bit i and ends at the lowest set bit l with
   i - l < k, so its value, bits i..l of e, is odd and below 2**k. */
static int window_end(uint64_t e, int i, int k)
{
    int l = i - k + 1 > 0 ? i - k + 1 : 0;
    while (!(e >> l & 1))
        l++;
    return l;
}

/* Bits i..l of e: the value of the window from bit i down to bit l. */
static unsigned window_value(uint64_t e, int i, int l)
{
    return (unsigned)(e >> l & ((2u << (i - l)) - 1));
}

/* The index of the top set bit of e > 0. */
static int top_bit(uint64_t e)
{
    int i = 63;
    while (!(e >> i & 1))
        i--;
    return i;
}

/* The products that raising to e > 0 with windows of width k takes: the
   table (x**2 and the odd powers x**3 .. x**(2**k - 1), none for k = 1),
   one squaring per bit below the first window, and one multiply per later
   window.  The first window is copied from the table. */
static int window_cost(uint64_t e, int k)
{
    int cost = k > 1 ? 1 << (k - 1) : 0;
    for (int i = window_end(e, top_bit(e), k) - 1, l; i >= 0; i = l - 1) {
        l = e >> i & 1 ? window_end(e, i, k) : i; /* a window, or one 0 bit */
        cost += i - l + 1 + (int)(e >> l & 1);
    }
    return cost;
}

/* The width k in {1, 2, 3} whose windows raise to e > 0 in the fewest
   products, the smallest on a tie.  Width 4 was measured no faster. */
static int window_width(uint64_t e)
{
    int k = 1;
    for (int kk = 2; kk <= 3; kk++)
        if (window_cost(e, kk) < window_cost(e, k))
            k = kk;
    return k;
}

/* out[b, r] = sum_j A[r, j] * base[b, j]**exps[j] mod q.  eval_body is
   inlined twice, once per reduction, with MERS a constant:
     - MERS = 1, q = 2**31 - 1: every product (at most q**2) is reduced by
       fold31, in normal form throughout: x = base mod q, and the A-product
       folds a * p as well.
     - MERS = 0, any other odd q < 2**31: Montgomery products.  The power
       buffer is kept in Montgomery form (value * R mod q), so one Montgomery
       product against the normal-form A entry lands the term back in normal
       form: (p*R) * a * R^-1 = p*a mod q.
   Per chunk, x of every column goes into pbuf, and each column is then
   raised in place, left to right by sliding windows of the width k in
   {1, 2, 3} that takes the fewest products for its exponent (the smallest
   k on a tie).  The table tab holds x, x**3, .. x**7 in rows 0..3 and x**2
   in row 4; width k fills rows 0..2**(k-1) - 1, and x**2 for k > 1.  The
   first window is copied from the table, so no product multiplies by one,
   and e = 0 gives one (1, or r1 in Montgomery form).
   Returns -1 if scratch allocation fails. */
static inline __attribute__((always_inline)) int
eval_body(const int MERS, const int64_t *base, int64_t total, int64_t n,
          const uint64_t *exps, const uint32_t *arows, int64_t m, uint32_t q,
          uint32_t qneg, uint32_t r1, uint32_t r2, int64_t *out)
{
    if ((uint64_t)n > SIZE_MAX / (CHUNK * sizeof(uint32_t)))
        return -1;
    uint32_t *tab = malloc(5 * CHUNK * sizeof *tab);
    uint32_t *acc = malloc(CHUNK * sizeof *acc);
    uint32_t *pbuf = malloc((size_t)n * CHUNK * sizeof *pbuf);
    if (!tab || !acc || !pbuf) {
        free(tab);
        free(acc);
        free(pbuf);
        return -1;
    }
    uint32_t *x = tab, *x2 = tab + 4 * CHUNK;
    for (int64_t s = 0; s < total; s += CHUNK) {
        int64_t w = total - s < CHUNK ? total - s : CHUNK;
        const int64_t *rows = base + s * n;
        /* x = base mod q, lifted into Montgomery form (base * R mod q)
           unless MERS, into the columns of pbuf.  The batch is read 16 rows
           at a time, so each column gets one whole cache line per block;
           read a column at a time, its stride of n * 8 bytes was slower. */
        for (int64_t i0 = 0; i0 < w; i0 += 16) {
            int64_t i1 = w - i0 < 16 ? w : i0 + 16;
            for (int64_t j = 0; j < n; j++)
                for (int64_t i = i0; i < i1; i++)
                    pbuf[j * CHUNK + i] = MERS ? fold31((uint64_t)rows[i * n + j])
                                               : redc((uint64_t)rows[i * n + j] * r2, q, qneg);
        }
        for (int64_t j = 0; j < n; j++) {
            uint32_t *p = pbuf + j * CHUNK;
            uint64_t e = exps[j];
            if (!e) {
                for (int64_t i = 0; i < w; i++)
                    p[i] = MERS ? 1 : r1;
                continue;
            }
            int k = window_width(e);
            for (int64_t i = 0; i < w; i++)
                x[i] = p[i];
            if (k > 1) {
                for (int64_t i = 0; i < w; i++)
                    x2[i] = mulmod(MERS, (uint64_t)x[i] * x[i], q, qneg);
                for (uint32_t *t = tab + CHUNK; t < tab + (CHUNK << (k - 1)); t += CHUNK) {
                    const uint32_t *prev = t - CHUNK; /* row u: x**(2u+1) = x**(2u-1) * x**2 */
                    for (int64_t i = 0; i < w; i++)
                        t[i] = mulmod(MERS, (uint64_t)prev[i] * x2[i], q, qneg);
                }
            }
            int hi = top_bit(e), lo = window_end(e, hi, k);
            const uint32_t *t = tab + window_value(e, hi, lo) / 2 * CHUNK;
            for (int64_t i = 0; i < w; i++)
                p[i] = t[i];
            for (hi = lo - 1; hi >= 0; hi = lo - 1) {
                lo = e >> hi & 1 ? window_end(e, hi, k) : hi; /* a window, or one 0 bit */
                for (int sq = hi; sq >= lo; sq--)
                    for (int64_t i = 0; i < w; i++)
                        p[i] = mulmod(MERS, (uint64_t)p[i] * p[i], q, qneg);
                if (e >> lo & 1) {
                    t = tab + window_value(e, hi, lo) / 2 * CHUNK;
                    for (int64_t i = 0; i < w; i++)
                        p[i] = mulmod(MERS, (uint64_t)p[i] * t[i], q, qneg);
                }
            }
        }
        for (int64_t r = 0; r < m; r++) {
            for (int64_t i = 0; i < w; i++)
                acc[i] = 0;
            for (int64_t j = 0; j < n; j++) {
                uint32_t a = arows[r * n + j];
                const uint32_t *p = pbuf + j * CHUNK;
                for (int64_t i = 0; i < w; i++) {
                    uint32_t v = acc[i] + mulmod(MERS, (uint64_t)a * p[i], q, qneg);
                    acc[i] = v >= q ? v - q : v; /* acc, v < q < 2**31 */
                }
            }
            for (int64_t i = 0; i < w; i++)
                out[(s + i) * m + r] = acc[i];
        }
    }
    free(tab);
    free(acc);
    free(pbuf);
    return 0;
}

/* The batch kernel: eval_body with the fold for q = 2**31 - 1, with
   Montgomery products for every other odd q < 2**31. */
int affext_mont_eval(const int64_t *base, int64_t total, int64_t n,
                     const uint64_t *exps, const uint32_t *arows, int64_t m,
                     uint32_t q, uint32_t qneg, uint32_t r1, uint32_t r2,
                     int64_t *out)
{
    if (q == MERSENNE31)
        return eval_body(1, base, total, n, exps, arows, m, q, qneg, r1, r2, out);
    return eval_body(0, base, total, n, exps, arows, m, q, qneg, r1, r2, out);
}

/* The count kernel.  Its grid is the product of k value rows, values[i * q
   + s] for s < q: row t < T = q**k, with base-q digits t_0 (slowest) ..
   t_{k-1}, is g(t) = (values[0][t_0], .., values[k-1][t_{k-1}]).  Canonical
   form makes every basis the identity on the pivot columns and every offset
   zero there, so pivot coordinate j_i of off + g(t).B is g(t)_i: the pivot
   terms of output i depend on the grid row alone.  The caller puts them in
   the first m columns of each work row (T rows of w = m + nf): P[t, i] =
   sum_i' tabs[i, j_i'][g(t)_i'] mod q.  The last nf columns are the
   kernel's scratch for the free coordinates fcols[0..nf): per basis,
   work[t, m + f] = (g(t).B)[fcols[f]] mod q.  Then for every counted offset
   row o = rows[r] and grid row t,
     v_i = P[t, i] + sum_f tabs[i, fcols[f]][off[o, fcols[f]] + work[t, m + f]] mod q
   and counts[b, o, v_0 q**(m-1) + ... + v_{m-1}] += 1.  tabs holds m * n
   A-weighted power tables, tabs[i, j][x] = A[i, j] * x**d_j mod q for x below
   tablen = 2q - 1, so each lookup needs no multiply, and one branchless
   conditional subtraction keeps the running sum below q: the per-point loop
   has no % and no data-dependent branch.  The caller guarantees what this
   loop does not check: values, bases, off and the tables hold residues
   below q, every value row fixes 0, the pivot columns are as above, n *
   (q-1)**2 < 2**63 (so the k-term sums of g(t).B fit), every rows[r] < O,
   counts has nb * O zeroed rows of q**m cells, and lines is 0 or, only at
   m = 1 and k >= 2, q**nf.  count_body, the point loop, is inlined once per
   (m, nf) in {1, 2} x {0, 1, 2} with constant loop bounds, and once more
   with runtime bounds for every other shape.  count_lines, the line loop,
   counts the same integers a line at a time, when lines is not 0.  Returns
   -1 if scratch allocation fails. */
/* The loops over f are short; vectorised into gathers they ran slower than
   scalar code, so GCC is told not to. */
#if defined(__GNUC__) && !defined(__clang__)
#define NO_VECTORIZE __attribute__((optimize("no-tree-vectorize")))
#else
#define NO_VECTORIZE
#endif

#define MAX_K 64 /* T = q**k < 2**63 with q >= 2 keeps k below this */

/* The free coordinates of basis B at the grid rows t < rows, from parameter
   i0 on: work[t * w + w - nf + f] = (g(t).B)[fcols[f]] mod q.  An odometer
   walks the rows, the digits d[i] and values g[i] = values[i][d[i]] of row
   t, one carry step per row (digit k - 1 fastest), with no division. */
static inline NO_VECTORIZE void
free_coords(const int64_t *B, const int64_t *values, int64_t rows, int64_t i0, int64_t k,
            int64_t n, const int64_t *fcols, int64_t nf, int64_t q, int64_t w, int64_t *work)
{
    int64_t d[MAX_K] = {0}, g[MAX_K];
    for (int64_t i = 0; i < k; i++)
        g[i] = values[i * q];
    for (int64_t t = 0; nf && t < rows; t++) {
        for (int64_t f = 0; f < nf; f++) {
            uint64_t s = 0;
            for (int64_t i = i0; i < k; i++)
                s += (uint64_t)(g[i] * B[i * n + fcols[f]]);
            work[t * w + w - nf + f] = (int64_t)(s % (uint64_t)q);
        }
        for (int64_t i = k - 1; i >= 0; i--) { /* to row t + 1 */
            d[i] = d[i] + 1 < q ? d[i] + 1 : 0;
            g[i] = values[i * q + d[i]];
            if (d[i])
                break;
        }
    }
}

static inline __attribute__((always_inline)) NO_VECTORIZE void
count_body(const int64_t M, const int64_t NF, const int64_t *tabs, int64_t tablen,
           int64_t n, const int64_t *fcols, const int64_t *values, int64_t T,
           int64_t k, const int64_t *bases, int64_t nb, const int64_t *off,
           const int64_t *rows, int64_t R, int64_t O, int64_t q, int64_t qm,
           int64_t *work, const int64_t **tp, int64_t *counts)
{
    const int64_t w = M + NF;
    for (int64_t b = 0; b < nb; b++) {
        const int64_t *B = bases + b * k * n;
        free_coords(B, values, T, 0, k, n, fcols, NF, q, w, work);
        for (int64_t r = 0; r < R; r++) {
            const int64_t *oo = off + rows[r] * n;
            for (int64_t i = 0; i < M; i++)
                for (int64_t f = 0; f < NF; f++)
                    tp[i * NF + f] = tabs + (i * n + fcols[f]) * tablen + oo[fcols[f]];
            int64_t *row = counts + (b * O + rows[r]) * qm;
            for (int64_t t = 0; t < T; t++) {
                const int64_t *x = work + t * w;
                int64_t enc = 0;
                for (int64_t i = 0; i < M; i++) {
                    int64_t v = x[i];
                    for (int64_t f = 0; f < NF; f++) {
                        v += tp[i * NF + f][x[M + f]] - q;
                        v += q & (v >> 63); /* from [-q, q) into [0, q) */
                    }
                    enc = enc * q + v;
                }
                row[enc]++;
            }
        }
    }
}

#define COUNT_SHAPE(M, NF)                                                    \
    if (m == M && nf == NF)                                                   \
        count_body(M, NF, tabs, tablen, n, fcols, values, T, k, bases, nb,    \
                   off, rows, R, O, q, qm, work, tp, counts);                 \
    else

/* The line loop, for m = 1 and k >= 2.  The grid splits at parameter 0 by
   construction: with T1 = T / q, row s*T1 + t is (values[0][s], g(t)_1, ..,
   g(t)_{k-1}) for s < q and t < T1, since each value row fixes 0, and P[s*T1
   + t] = P[s*T1] + P[t] mod q, since every pivot table is 0 at 0 (each
   d_j >= 1).  So, by linearity, point s*T1 + t of offset o has free
   coordinates c + (values[0][s] B0 mod q), where B0 is basis row 0 on the
   free columns, and c = o + (g(t).B mod q) mod q is the point's class in
   F_q^nf; its output is y + P[t] mod q with
     y = P[s*T1] + sum_f tabs[fcols[f]][c_f + (values[0][s] B0_f mod q)] mod q.
   So the q points s of a line (o, t) are counted by one line table of the
   class, L[c][y] = #{s : y as above}, kept twice over in 2q cells
   (L[c][y + q] = L[c][y]): counts[o][v] += L[c][v - P[t] mod q], the q
   contiguous cells of L[c] from cell q - P[t], where the point loop makes
   q scattered increments.  L depends on B0 alone and is rebuilt only when
   B0 changes; basis_at puts row 0's cells first, so along a run B0 changes
   slowest.  Per basis only the free coordinates of the T1 prefix rows are
   formed, in work.  The caller budgets L, nc * 2q cells, nc = q**nf.
   noinline keeps it out of the no-tree-vectorize caller: its q-cell adds
   are the loop to vectorise.  Returns -1 if L cannot be allocated. */
static __attribute__((noinline)) int
count_lines(const int64_t *tabs, int64_t tablen, int64_t n, const int64_t *fcols,
            int64_t nf, const int64_t *values, int64_t T, int64_t k,
            const int64_t *bases, int64_t nb, const int64_t *off,
            const int64_t *rows, int64_t R, int64_t O, int64_t q, int64_t nc,
            int64_t *work, int64_t *counts)
{
    const int64_t w = 1 + nf, T1 = T / q, q2 = 2 * q;
    if ((uint64_t)nc > (SIZE_MAX / sizeof(int64_t) - (uint64_t)nf) / (uint64_t)q2)
        return -1;
    int64_t *L = malloc((size_t)(nc * q2 + nf) * sizeof *L);
    if (!L)
        return -1;
    int64_t *digit = L + nc * q2; /* the class digits c_f while L is built */
    for (int64_t b = 0; b < nb; b++) {
        const int64_t *B = bases + b * k * n;
        int same = b > 0; /* B0 as the previous basis's */
        for (int64_t f = 0; same && f < nf; f++)
            same = B[fcols[f]] == B[fcols[f] - k * n];
        if (!same)
            for (int64_t c = 0; c < nc; c++) {
                int64_t *Lc = L + c * q2;
                for (int64_t f = nf - 1, rest = c; f >= 0; f--, rest /= q)
                    digit[f] = rest % q;
                memset(Lc, 0, (size_t)q * sizeof *Lc);
                for (int64_t s = 0; s < q; s++) {
                    int64_t v = work[s * T1 * w];
                    for (int64_t f = 0; f < nf; f++) {
                        v += tabs[fcols[f] * tablen + digit[f] + values[s] * B[fcols[f]] % q] - q;
                        v += q & (v >> 63); /* from [-q, q) into [0, q) */
                    }
                    Lc[v]++;
                }
                memcpy(Lc + q, Lc, (size_t)q * sizeof *Lc);
            }
        free_coords(B, values, T1, 1, k, n, fcols, nf, q, w, work);
        for (int64_t r = 0; r < R; r++) {
            const int64_t *oo = off + rows[r] * n;
            int64_t *row = counts + (b * O + rows[r]) * q;
            for (int64_t t = 0; t < T1; t++) {
                const int64_t *x = work + t * w;
                int64_t c = 0;
                for (int64_t f = 0; f < nf; f++) {
                    int64_t d = oo[fcols[f]] + x[1 + f] - q;
                    c = c * q + d + (q & (d >> 63));
                }
                const int64_t *src = L + c * q2 + q - x[0];
                for (int64_t v = 0; v < q; v++)
                    row[v] += src[v];
            }
        }
    }
    free(L);
    return 0;
}

NO_VECTORIZE int
affext_count_blocks(const int64_t *tabs, int64_t tablen, int64_t n, int64_t m,
                    const int64_t *fcols, int64_t nf, const int64_t *values,
                    int64_t T, int64_t k, const int64_t *bases, int64_t nb,
                    const int64_t *off, const int64_t *rows, int64_t R,
                    int64_t O, int64_t q, int64_t qm, int64_t lines,
                    int64_t *work, int64_t *counts)
{
    if (k >= MAX_K)
        return -1;
    if (lines)
        return count_lines(tabs, tablen, n, fcols, nf, values, T, k, bases, nb, off,
                           rows, R, O, q, lines, work, counts);
    if ((uint64_t)(m * nf) >= SIZE_MAX / sizeof(int64_t *))
        return -1;
    const int64_t **tp = malloc((size_t)(m * nf + 1) * sizeof *tp);
    if (!tp)
        return -1;
    COUNT_SHAPE(1, 0) COUNT_SHAPE(1, 1) COUNT_SHAPE(1, 2)
    COUNT_SHAPE(2, 0) COUNT_SHAPE(2, 1) COUNT_SHAPE(2, 2)
    count_body(m, nf, tabs, tablen, n, fcols, values, T, k, bases, nb, off, rows,
               R, O, q, qm, work, tp, counts);
    free(tp);
    return 0;
}

/* The report writer.  desc holds DESC int64 fields per check, pointers as
   integers: its name and the name's length; a bound on the width of its
   lines; then per CSV cell (subspace_id, c_encoded, quantity, bound,
   satisfied) a kind and three fields a, b, c:
     CELL_INT    a: int64 values, written in decimal as Python's str(int);
     CELL_TABLE  a: an int64 index per row into a table of strings, or 0 for
                 a table of one string, b: the table's bytes, c: int64
                 offsets, string s is [c[s], c[s+1]).
   seq holds the check of each of the nseq lines, in sweep order, and each
   check's rows come in that order, so line i is the next row of check
   seq[i]: at[0] is the next line, and at[1 + c] check c's next row.
   Before each line the writer checks that the check's width bound still
   fits in the cap bytes of buf, and stops when it does not.  It returns the
   bytes written; with cap at least every check's width bound, 0 means every
   line is written. */
enum { CELL_INT, CELL_TABLE };
#define DESC 23 /* 3 fields per check, then 4 per cell */
#define PTR(T, v) ((const T *)(intptr_t)(v))

static char *put_int64(char *p, int64_t v)
{
    char digits[20];
    int i = 0;
    uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v; /* also for -2**63 */
    do
        digits[i++] = (char)('0' + u % 10);
    while (u /= 10);
    if (v < 0)
        *p++ = '-';
    while (i)
        *p++ = digits[--i];
    return p;
}

int64_t affext_write_rows(const int64_t *desc, const int64_t *seq, int64_t nseq,
                          int64_t *at, char *buf, int64_t cap)
{
    char *p = buf;
    for (; at[0] < nseq; at[0]++) {
        const int64_t *d = desc + seq[at[0]] * DESC;
        if (buf + cap - p < d[2])
            break;
        int64_t r = at[1 + seq[at[0]]]++;
        memcpy(p, PTR(char, d[0]), (size_t)d[1]);
        p += d[1];
        for (const int64_t *f = d + 3; f < d + DESC; f += 4) {
            *p++ = ',';
            if (f[0] == CELL_INT) {
                p = put_int64(p, PTR(int64_t, f[1])[r]);
            } else {
                const int64_t *off = PTR(int64_t, f[3]) + (f[1] ? PTR(int64_t, f[1])[r] : 0);
                for (int64_t i = off[0]; i < off[1]; i++) /* short: a loop beats memcpy */
                    *p++ = PTR(char, f[2])[i];
            }
        }
        *p++ = '\n';
    }
    return p - buf;
}

/* The distinct values of bits[0..n), in order of first appearance: first[j]
   gets the first row of value j and at[i] the value of row i.  One open-
   addressing table of 2**b >= 2n slots holds j per used slot and -1 per
   free one (all bytes 0xff, so the allocation is no calloc, a new import
   that would move the code above), and a multiplicative hash picks its top
   b bits.  Returns the count of distinct values, or -1 if the table cannot
   be allocated. */
int64_t affext_unique64(const int64_t *bits, int64_t n, int64_t *at, int64_t *first)
{
    int b = 1;
    while (b < 62 && ((int64_t)1 << b) < 2 * n)
        b++;
    if (((int64_t)1 << b) < 2 * n)
        return -1;
    const uint64_t mask = ((uint64_t)1 << b) - 1;
    int64_t *slot = malloc(((size_t)mask + 1) * sizeof *slot);
    if (!slot)
        return -1;
    memset(slot, 0xff, ((size_t)mask + 1) * sizeof *slot);
    int64_t distinct = 0;
    for (int64_t i = 0; i < n; i++) {
        uint64_t h = ((uint64_t)bits[i] * 0x9e3779b97f4a7c15u) >> (64 - b);
        while (slot[h] >= 0 && bits[first[slot[h]]] != bits[i])
            h = (h + 1) & mask;
        if (slot[h] < 0) {
            first[distinct] = i;
            slot[h] = distinct++;
        }
        at[i] = slot[h];
    }
    free(slot);
    return distinct;
}
"""

# Compiler flags, tried in order; the first set the compiler accepts is used.
_C_FLAGS = (("-O3", "-march=native"), ("-O3",))


@dataclass(frozen=True)
class CBuild:
    """Outcome of building and loading the C kernels in this process."""

    fn: object = None  # the loaded batch kernel (ctypes function), or None
    count_fn: object = None  # the loaded count kernel, or None
    write_fn: object = None  # the loaded report writer, or None
    unique_fn: object = None  # the loaded float-cell deduplication, or None
    flags: tuple[str, ...] = ()
    path: str = ""  # the cached shared object
    error: str = ""  # why every function above is None


def _find_compiler() -> str | None:
    return shutil.which("cc") or shutil.which("gcc")


def _cpu_flags() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _cache_dir() -> str | None:
    """A private, writable directory for the shared object: the user's cache
    directory if possible, else a per-user directory under the temp dir."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    for path in (os.path.join(base, "affext"),
                 os.path.join(tempfile.gettempdir(), f"affext-{os.getuid()}")):
        try:
            os.makedirs(path, mode=0o700, exist_ok=True)
            st = os.stat(path)
        except OSError:
            continue
        # a directory others can write could hold a planted library
        if st.st_uid == os.getuid() and not st.st_mode & 0o022 and os.access(path, os.W_OK):
            return path
    return None


def _compile(cc: str, flags: tuple[str, ...], path: str) -> str:
    """Compile the kernel to `path` atomically; return an error message or ''."""
    import subprocess  # only a build starts a process; loading a cached object does not

    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    os.close(fd)
    try:
        done = subprocess.run(
            [cc, *flags, "-shared", "-fPIC", "-x", "c", "-", "-o", tmp],
            input=_C_SOURCE, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            lines = done.stderr.strip().splitlines()
            return f"{cc} {' '.join(flags)} failed: {lines[-1] if lines else done.returncode}"
        os.replace(tmp, path)  # a concurrent reader sees no file or a whole one
        return ""
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"{cc} {' '.join(flags)} failed: {exc}"
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.lru_cache(maxsize=None)
def c_build() -> CBuild:
    """Build the C functions (at most once per machine) and load them (once
    per process).  A failed build warns once per process, for all four."""
    build = _build()
    if build.error:
        warnings.warn(f"C kernels unavailable ({build.error}); using the numpy batch and "
                      f"count kernels and the python report writer instead", RuntimeWarning)
    return build


def _compiler_id(cc: str) -> str:
    """The compiler as the cache key names it: its resolved path, size and
    modification time, which change when it is replaced or upgraded."""
    path = os.path.realpath(cc)
    st = os.stat(path)
    return f"{path} {st.st_size} {st.st_mtime_ns}"


def _object_name(compiler: str, flags: tuple[str, ...]) -> str:
    """The cached object's file name: a 64-bit zlib digest (crc32, then
    adler32) of the source, the flags, _compiler_id and the machine, plus the
    CPU flags for -march=native.  crc32 tells apart any two keys that differ
    in one byte."""
    key = "\0".join((_C_SOURCE, " ".join(flags), compiler, platform.machine(),
                     _cpu_flags() if "-march=native" in flags else "")).encode()
    return f"mont_{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so"


def _build() -> CBuild:
    """Load the cached shared object of the first flag set that builds,
    compiling it first if it is missing.  Finding a cached object stats the
    compiler and starts no process."""
    import ctypes

    cc = _find_compiler()
    if cc is None:
        return CBuild(error="no C compiler found (tried cc, gcc)")
    try:
        compiler = _compiler_id(cc)
    except OSError as exc:
        return CBuild(error=f"cannot stat {cc}: {exc}")
    cache = _cache_dir()
    if cache is None:
        return CBuild(error="no private writable cache directory for the compiled kernel")
    errors = []
    for flags in _C_FLAGS:
        path = os.path.join(cache, _object_name(compiler, flags))
        if not os.path.exists(path):
            err = _compile(cc, flags, path)
            if err:
                errors.append(err)
                continue
        try:
            lib = ctypes.CDLL(path)
            fn, count_fn, write_fn, unique_fn = (lib.affext_mont_eval, lib.affext_count_blocks,
                                                 lib.affext_write_rows, lib.affext_unique64)
        except (OSError, AttributeError) as exc:
            errors.append(f"loading {path} failed: {exc}")
            continue
        i64, u32, ptr = ctypes.c_int64, ctypes.c_uint32, ctypes.c_void_p
        fn.restype = ctypes.c_int
        fn.argtypes = [ptr, i64, i64, ptr, ptr, i64, u32, u32, u32, u32, ptr]
        arr = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")  # checked per call
        count_fn.restype = ctypes.c_int
        count_fn.argtypes = [arr, i64, i64, i64, arr, i64, arr, i64, i64, arr, i64, arr,
                             arr, i64, i64, i64, i64, i64, arr, arr]
        write_fn.restype = i64
        write_fn.argtypes = [ptr, ptr, i64, ptr, ptr, i64]
        unique_fn.restype = i64
        unique_fn.argtypes = [arr, i64, arr, arr]
        return CBuild(fn=fn, count_fn=count_fn, write_fn=write_fn, unique_fn=unique_fn,
                      flags=flags, path=path)
    return CBuild(error="; ".join(errors))


def _eval_c(xs: np.ndarray, exps, rows, q: int) -> np.ndarray:
    """Reads the caller's int64 batch in place and writes int64 output."""
    xs = np.ascontiguousarray(xs, dtype=np.int64)
    total, n = xs.shape
    m = len(rows)
    e = np.ascontiguousarray(exps, dtype=np.uint64)
    arows = np.array([[a % q for a in row] for row in rows], dtype=np.uint32)
    out = np.empty((total, m), dtype=np.int64)
    qneg = -pow(q, -1, 1 << 32) % (1 << 32)
    status = c_build().fn(
        xs.ctypes.data, total, n, e.ctypes.data, arows.ctypes.data, m,
        q, qneg, (1 << 32) % q, pow(1 << 32, 2, q), out.ctypes.data,
    )
    if status != 0:
        raise MemoryError(f"C batch kernel could not allocate scratch for n={n}")
    return out


def _pow_column_numpy(col: np.ndarray, e: int, q: int) -> np.ndarray:
    """Square-and-multiply on a uint64 column; q < 2**32 keeps products exact."""
    qq = np.uint64(q)
    acc = np.full(col.shape, np.uint64(1 % q), dtype=np.uint64)
    x = col.copy()
    while e > 0:
        if e & 1:
            acc *= x
            acc %= qq
        e >>= 1
        if e > 0:
            x *= x
            x %= qq
    return acc


def _eval_numpy(xs: np.ndarray, exps, rows, q: int) -> np.ndarray:
    xs = np.ascontiguousarray(xs, dtype=np.uint64)
    total, n = xs.shape
    powed = np.empty((total, n), dtype=np.uint64)
    for j in range(n):
        powed[:, j] = _pow_column_numpy(xs[:, j], int(exps[j]), q)
    m = len(rows)
    out = np.empty((total, m), dtype=np.uint64)
    qq = np.uint64(q)
    for r in range(m):
        acc = np.zeros(total, dtype=np.uint64)
        for j in range(n):
            t = powed[:, j] * np.uint64(rows[r][j])
            t %= qq
            acc += t  # n terms, each < q < 2**32: no overflow before reduce
            acc %= qq
        out[:, r] = acc
    return out.astype(np.int64)


def _eval_python(xs, exps, rows, q: int) -> np.ndarray:
    rows = [tuple(int(a) for a in row) for row in rows]
    out = np.empty((len(xs), len(rows)), dtype=np.int64)
    for b, x in enumerate(xs):
        powed = [pow(int(v), int(e), q) for v, e in zip(x, exps)]
        for r, row in enumerate(rows):
            out[b, r] = sum(a * p for a, p in zip(row, powed)) % q
    return out


def c_unavailable() -> str:
    """Why the C functions cannot run in this process, or "" when they load:
    the one lookup for the batch kernel, the count kernel, the report writer
    and its deduplication, which load or fail together (and warn once if
    they fail)."""
    error = c_build().error
    return error and f"C kernels unavailable: {error}"


def count_route() -> str:
    """The route count_blocks takes: "c" or "numpy (<why>)"."""
    why = c_unavailable()
    return f"numpy ({why})" if why else "c"


def report_route() -> str:
    """The route write_rows takes: "c" or "python (<why>)"."""
    why = c_unavailable()
    return f"python ({why})" if why else "c"


def batch_route(q: int) -> str:
    """The kernel batch_apply runs for modulus q: "c (mersenne)" or
    "c (montgomery)", by the reduction the C kernel picks from q, for odd
    q < 2**31 when the C kernels load, else "numpy" below 2**32, else
    "python".  Asking about a modulus the C kernel handles builds or loads it."""
    if q % 2 == 1 and q < _C_MAX_Q and not c_unavailable():
        return "c (mersenne)" if q == _MERSENNE31 else "c (montgomery)"
    return "numpy" if q < _NUMPY_MAX_Q else "python"


def batch_apply(xs, exps, rows, q: int) -> np.ndarray:
    """Apply x -> A * x^d to a batch; returns an int64 array of shape (B, m).

    xs is an array-like of shape (B, n) of canonical residues, exps the n
    nonnegative exponents, rows the m rows of A, each of n canonical
    residues, all of them integers.  All of that is checked here, before the
    kernel batch_route(q) names runs: the kernels agree on no other input.
    """
    xs = np.asarray(xs)
    if xs.ndim != 2:
        raise ValueError(f"batch must be two-dimensional, got shape {xs.shape}")
    n = xs.shape[1]
    if len(exps) != n or any(len(row) != n for row in rows):
        raise ValueError(f"exponents and matrix rows must have length {n}")
    if xs.size and xs.dtype.kind not in "iu":  # a kernel would truncate, or fail its own way
        raise ValueError(f"batch must hold integers, got dtype {xs.dtype}")
    if xs.size and (xs.min() < 0 or xs.max() >= q):
        raise ValueError("batch contains non-canonical residues")
    try:
        exps, rows = list(map(operator.index, exps)), [list(map(operator.index, r)) for r in rows]
    except TypeError:
        raise ValueError("exponents and matrix entries must be integers") from None
    if any(e < 0 for e in exps) or any(not 0 <= a < q for row in rows for a in row):
        raise ValueError("exponents must be nonnegative and matrix entries canonical residues")
    route = batch_route(q)
    run = _eval_c if route.startswith("c") else _eval_numpy if route == "numpy" else _eval_python
    return run(xs, exps, rows, q)


_ELEM_SLICE = 1 << 24  # max elements in one offsets-by-points buffer of _count_numpy


def count_blocks(q: int, tables, free, values, bases, offsets, rows, lines, work, counts) -> None:
    """Tally the arrays of analysis._PointCounts.counts into counts, (nb, O,
    q**m) and zeroed, on count_route(); the C kernel counts by lines unless
    lines, their class count q**(n-k), is 0.  Each array is C-contiguous
    int64 (ctypes refuses any other); the caller checks every other
    precondition."""
    if count_route() != "c":
        return _count_numpy(q, tables, free, values, bases, offsets, rows, work, counts)
    m, n, tablen = tables.shape
    (nb, k, _), T, (O, qm) = bases.shape, len(work), counts.shape[1:]
    status = c_build().count_fn(tables, tablen, n, m, free, len(free), values, T, k, bases, nb,
                                offsets, rows, len(rows), O, q, qm, lines, work, counts)
    if status != 0:
        raise MemoryError("C count kernel could not allocate its scratch")


def _count_numpy(q: int, tables, free, values, bases, offsets, rows, work, counts) -> None:
    """One gather per free coordinate and a bincount per slice of offsets."""
    m, n, _ = tables.shape
    k, T, qm = len(values), len(work), counts.shape[2]
    grid = values[np.arange(k), np.indices((q,) * k).reshape(k, T).T]  # (T, k), lex order
    slice_rows = max(1, _ELEM_SLICE // max(1, n * T))
    for b, basis in enumerate(bases):
        work[:, m:] = (grid @ basis[:, free]) % q
        for lo in range(0, len(rows), slice_rows):
            at = rows[lo : lo + slice_rows]
            enc = np.zeros((len(at), T), dtype=np.int64)
            for i in range(m):
                acc = np.broadcast_to(work[:, i], (len(at), T)).copy()
                for f, j in enumerate(free):
                    acc += tables[i, j][offsets[at, j][:, None] + work[:, m + f]]
                enc = enc * q + acc % q
            flat = (np.arange(len(at), dtype=np.int64)[:, None] * qm + enc).ravel()
            counts[b, at] = np.bincount(flat, minlength=len(at) * qm).reshape(-1, qm)


_REPORT_BUFFER = 1 << 20  # bytes of the report writer's buffer, for any report size
_CELL_INT, _CELL_TABLE = range(2)  # the cell kinds of affext_write_rows


def _c_cell(col: np.ndarray, cells, hold: list) -> tuple[list[int], int]:
    """A column as affext_write_rows reads it, (kind, a, b, c), and the width
    of its widest text: an int column as it is, any other as a table of
    strings, cells(col).  hold keeps the arrays the fields point into alive."""
    if col.dtype.kind == "i":
        hold.append(ints := np.ascontiguousarray(col, np.int64))
        return [_CELL_INT, ints.ctypes.data, 0, 0], 20  # len(str(-2**63))
    strings, at = cells(col)
    lens = np.fromiter(map(len, strings), np.int64, len(strings))
    one = len(strings) == 1  # every row takes the one string: no index to allocate or read
    at = None if one else np.ascontiguousarray(np.arange(len(lens)) if at is None else at, np.int64)
    pool = np.frombuffer("".join(strings).encode("ascii"), np.uint8)
    hold += [at, pool, off := np.concatenate(([0], np.cumsum(lens)))]
    index = 0 if one else at.ctypes.data
    return [_CELL_TABLE, index, pool.ctypes.data, off.ctypes.data], int(lens.max(initial=0))


def _unique_c(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of an int64 array, in order of first appearance,
    and each entry's index into them, by affext_unique64."""
    bits = np.ascontiguousarray(bits, dtype=np.int64)
    at, first = np.empty(len(bits), dtype=np.int64), np.empty(len(bits), dtype=np.int64)
    distinct = c_build().unique_fn(bits, len(bits), at, first)
    if distinct < 0:
        raise MemoryError(f"C deduplication could not allocate a table for {len(bits)} cells")
    return bits[first[:distinct]], at


def _unique_numpy(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_unique_c's values, sorted, and the indices into them, by np.unique."""
    return np.unique(bits, return_inverse=True)


def write_rows(order, checks, cells, fh) -> None:
    """Write report rows to the binary fh on report_route(): by
    affext_write_rows, one fixed buffer at a time, or by _write_python, with
    the same bytes.  checks holds per check its name and its five columns
    after the name; order lists the rows of the checks, taken one check after
    another, in sweep order.  cells(column, unique) gives the strings of a
    column and each row's index into them (None: row i takes string i),
    where unique(int64 array) gives its distinct values and each entry's
    index into them: _unique_c on the C route, _unique_numpy on the other.
    The C writer writes an int column itself.  A column two checks share is
    read once."""
    if report_route() != "c":
        return _write_python(order, checks, functools.partial(cells, unique=_unique_numpy), fh)
    cells = functools.partial(cells, unique=_unique_c)
    hold, desc, done = [], [], {}
    for name, cols in checks:
        for c in cols:
            if id(c) not in done:
                done[id(c)] = _c_cell(c, cells, hold)
        hold.append(label := np.frombuffer(name.encode("ascii"), np.uint8))
        width = len(label) + sum(done[id(c)][1] for c in cols) + 6  # 5 commas and a newline
        desc.append([label.ctypes.data, len(label), width,
                     *(f for c in cols for f in done[id(c)][0])])
    desc = np.array(desc, dtype=np.int64).reshape(-1, 23)  # 3 fields per check, 4 per cell
    seq = _line_checks(order, checks)[0]
    at = np.zeros(1 + len(desc), dtype=np.int64)  # the next line, then each check's next row
    buf = np.empty(max(_REPORT_BUFFER, desc[:, 2].max(initial=0)), dtype=np.uint8)  # a line fits
    write = c_build().write_fn
    while n := write(desc.ctypes.data, seq.ctypes.data, len(seq), at.ctypes.data,
                     buf.ctypes.data, len(buf)):
        fh.write(buf[:n])


def _line_checks(order, checks) -> tuple[np.ndarray, np.ndarray]:
    """The check of each line, in sweep order, and each check's first row in
    order's numbering, the checks' rows taken one check after another."""
    rows = [len(cols[0]) for _, cols in checks]  # per check, the length of its ids column
    starts = np.cumsum([0, *rows[:-1]], dtype=np.int64)
    return np.repeat(np.arange(len(checks), dtype=np.int64), rows)[order], starts


def _write_python(order, checks, cells, fh) -> None:
    """write_rows on the python route, a slice of lines at a time.  A float
    or bool column, whose cells repeat, is formatted once through its
    distinct strings; any other column a slice at a time.  Each slice
    formats _REPORT_BUFFER // 8 lines at most (a line takes 7 bytes or more)
    and writes them in pieces of at most _REPORT_BUFFER bytes, or one line
    if it is longer."""
    whole = {}
    for c in (c for _, cols in checks for c in cols if c.dtype.kind not in "iO"):
        strings, at = cells(c)
        whole[id(c)] = np.array(strings, dtype=object), at

    def text(c, a: int, b: int) -> list[str]:  # the cells of rows [a, b) of column c
        if id(c) in whole:
            strings, at = whole[id(c)]
        else:
            (strings, at), a, b = cells(c[a:b]), 0, b - a
        return strings[a:b] if at is None else np.asarray(strings, dtype=object)[at[a:b]].tolist()

    seq, starts = _line_checks(order, checks)
    done = np.zeros(len(checks), dtype=np.int64)  # per check, the rows written
    step = max(1, _REPORT_BUFFER // 8)
    for lo in range(0, len(seq), step):
        part = seq[lo : lo + step]
        count = np.bincount(part, minlength=len(checks))
        lines = [line for (name, cols), a, n in zip(checks, done.tolist(), count.tolist()) if n
                 for line in map(",".join, zip(repeat(name), *(text(c, a, a + n) for c in cols)))]
        first = np.cumsum(count) - count  # per check, its first line in lines
        lines = np.array(lines, dtype=object)[order[lo : lo + step] - starts[part]
                                              - done[part] + first[part]].tolist()
        done += count
        ends = np.cumsum(np.fromiter(map(len, lines), np.int64, len(lines)) + 1)
        a = 0
        while a < len(lines):  # the lines that fit the buffer after line a, and one at least
            b = max(a + 1, int(np.searchsorted(ends, (ends[a - 1] if a else 0) + _REPORT_BUFFER,
                                               side="right")))
            fh.write("".join(f"{line}\n" for line in lines[a:b]).encode("ascii"))
            a = b
