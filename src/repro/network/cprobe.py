"""Generated-C batch evaluator for the gamma search of the Sec. IV bound.

The lane engine of :mod:`repro.network.lanes` — the numpy bound search
of every entry point — minimizes the scalar objective
:func:`repro.network.vectorized._e2e_probe` over ``gamma`` at every
``s`` its s-search visits: a log grid, then a golden-section refinement
of the best cell, tens of thousands of probes per cell group.  At that
volume the Python interpreter is the bottleneck, not the math.  This
module emits a small C translation unit that mirrors those loops and
the probe's floating-point expression trees *operation for operation*
— the MMOO effective bandwidth, the Eq. (33) sigma chain, the
FIFO/BMUX closed forms (Eqs. 43-44), the slope-sweep exact theta
minimization with its near-minimum re-evaluation window, and
:func:`repro.utils.numeric.grid_then_golden` around it — and compiles
it on first use with the system C compiler.

Entry points, each one C call per batch of requests:

* :func:`mmoo_gamma_values` — a ``(lane, s)`` point of the MMOO
  s-search: the EBB pair at ``s`` and its whole gamma search (the lane
  engine's only kernel request);
* :func:`gamma_values` — the whole gamma search of a fixed EBB pair
  (the numpy path of :func:`~repro.network.e2e.e2e_delay_bound`);
* :func:`probe_values` / :func:`golden_values` — single probes and
  single golden-section refinements, which
  :func:`~repro.network.vectorized.e2e_delay_grid_rows` and the tests
  use to pin the kernel's building blocks.

Bitwise contract
----------------
The C kernel computes the identical IEEE-754 double sequence as the
Python reference: same operations in the same association order, libm
``expm1``/``log``/``exp``/``pow``/``sqrt`` (the same functions
CPython's ``math`` module and float ``**`` call in-process), and strict
FP semantics (``-fno-fast-math -ffp-contract=off``, no reassociation,
no FMA contraction).  The test suite pins value equality against the
Python searches over randomized parameters in every ``Delta`` case.

Availability
------------
Compilation needs a C compiler (``cc``) on ``PATH``.  When compilation
is impossible, :func:`available` is ``False`` and every entry point
transparently falls back to its Python reference — ``_e2e_probe``
driven by :func:`~repro.utils.numeric.grid_then_golden` or
:func:`~repro.utils.numeric.golden_section_min` — identical results,
about 20x slower (the full Figs. 2-4 grid took 62.8 s on the fallback
against 2.7-3.2 s on the kernel, on a 2-vCPU Xeon); :func:`probe_kernel` names the kernel in use so
the difference is visible.  Every numpy bound search runs through this
module, so that fallback is the only place the Python probe still
runs; a no-compiler test leg keeps it covered.  The shared object is
cached in the system temp directory (or ``REPRO_CPROBE_DIR``) keyed by
a hash of the C source, so the compiler runs once per source revision,
not once per process.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import subprocess
import tempfile
from typing import Sequence

import numpy as np

from repro import obs
from repro.arrivals.ebb import EBB
from repro.arrivals.mmoo import MMOOParameters
from repro.utils.numeric import EXP_OVERFLOW

__all__ = [
    "available",
    "probe_kernel",
    "ProbeTable",
    "LaneTable",
    "probe_values",
    "golden_values",
    "gamma_values",
    "mmoo_gamma_values",
    "CTX_FIELDS",
    "LANE_FIELDS",
]

#: Per-context field layout of the C kernel's context table (one row per
#: fixed EBB pair).
CTX_FIELDS = (
    "through_prefactor",
    "through_decay",
    "through_rate",
    "cross_prefactor",
    "cross_decay",
    "cross_rate",
    "hops",
    "capacity",
    "delta",
    "epsilon",
)

#: Per-lane field layout of the C kernel's lane table (one row per MMOO
#: lane, served at every ``s``).
LANE_FIELDS = (
    "peak",
    "p11",
    "p22",
    "n_through",
    "n_cross",
    "hops",
    "capacity",
    "delta",
    "epsilon",
    "gamma_grid",
)

#: Paths longer than this fall back to the Python probe (the C kernel
#: uses fixed-size stack buffers).
MAX_HOPS = 1024

_C_SOURCE = r"""
#include <math.h>

#define TPRE 0
#define TDEC 1
#define TRATE 2
#define CPRE 3
#define CDEC 4
#define CRATE 5
#define HOPS 6
#define CAP 7
#define DELTA 8
#define EPS 9
#define NF 10

#define MAX_HOPS 1024
#define SWEEP_WINDOW 1e-9

/* mirror of vectorized._sigma_fast (inf on underflow) */
static double sigma_fast(const double *c, int hops, double gamma)
{
    double geo_t = -expm1(-c[TDEC] * gamma);
    double geo_c = -expm1(-c[CDEC] * gamma);
    if (!(geo_t > 0.0) || !(geo_c > 0.0))
        return INFINITY;
    double w = 1.0 / c[TDEC];
    for (int i = 0; i < hops; i++)
        w += 1.0 / c[CDEC];
    double log_m = log(w);
    log_m += log((c[TPRE] / geo_t) * c[TDEC]) / (c[TDEC] * w);
    double last = c[CPRE] / geo_c;
    double inflated = last / geo_c;
    double term_inflated = log(inflated * c[CDEC]) / (c[CDEC] * w);
    for (int i = 0; i < hops - 1; i++)
        log_m += term_inflated;
    log_m += log(last * c[CDEC]) / (c[CDEC] * w);
    double prefactor = exp(log_m);
    double alpha = 1.0 / w;
    double sigma = log(prefactor / c[EPS]) / alpha;
    /* Python max(0.0, v): returns 0.0 unless v > 0.0 (incl. v = NaN) */
    return sigma > 0.0 ? sigma : 0.0;
}

/* mirror of vectorized._fifo_closed_form (Eq. 44) */
static double fifo_closed_form(int hops, double capacity, double rho_cross,
                               double gamma, double sigma)
{
    double r = rho_cross + gamma;
    double tails[MAX_HOPS + 1];
    tails[hops] = 0.0;
    for (int k = hops - 1; k >= 0; k--) {
        double r_svc = capacity - k * gamma;
        tails[k] = tails[k + 1] + (r_svc - r) / r_svc;
    }
    int k = hops;
    for (int kk = 0; kk <= hops; kk++) {
        if (tails[kk] < 1.0) { k = kk; break; }
    }
    if (k == 0) {
        double total = 0.0;
        for (int h = 1; h <= hops; h++)
            total += sigma / (capacity - (h - 1) * gamma);
        return total;
    }
    double denom = capacity - rho_cross - k * gamma;
    if (denom <= 0.0)
        return INFINITY;
    double x = sigma / denom;
    double total = x;
    for (int h = k + 1; h <= hops; h++)
        total += (h - k) * gamma * x / (capacity - (h - 1) * gamma);
    return total;
}

/* mirror of vectorized._objective_homogeneous */
static double objective_homog(double capacity, double r, double delta,
                              double sigma, int hops, double gamma, double x)
{
    double total = 0.0;
    if (delta == -INFINITY) {
        for (int k = 0; k < hops; k++) {
            double t = sigma / (capacity - k * gamma) - x;
            if (t > 0.0) total += t;
        }
    } else if (delta == INFINITY) {
        for (int k = 0; k < hops; k++) {
            double t = sigma / ((capacity - k * gamma) - r) - x;
            if (t > 0.0) total += t;
        }
    } else if (delta <= 0.0) {
        double clipped = x + delta;
        if (clipped < 0.0) clipped = 0.0;
        double numerator = sigma + r * clipped;
        for (int k = 0; k < hops; k++) {
            double t = numerator / (capacity - k * gamma) - x;
            if (t > 0.0) total += t;
        }
    } else {
        for (int k = 0; k < hops; k++) {
            double r_svc = capacity - k * gamma;
            double denom = r_svc - r;
            double theta_low = (sigma - denom * x) / denom;
            if (theta_low <= delta) {
                if (theta_low > 0.0) total += theta_low;
            } else {
                double t = (sigma + r * (x + delta)) / r_svc - x;
                total += t > delta ? t : delta;
            }
        }
    }
    return x + total;
}

/* (x, change) events order like Python tuples: by x, ties by change */
static int ev_less(const double *a, const double *b)
{
    return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1]);
}

#define SORT_RUN 64

/* stable sort of the sweep's events, the order of Python's list.sort:
 * insertion sort of runs of SORT_RUN events (the whole list on short
 * paths, where it is mostly in order already), then bottom-up merges,
 * so long paths stay O(n log n) */
static void sort_events(double *ev, int n)
{
    for (int lo = 0; lo < n; lo += SORT_RUN) {
        int hi = lo + SORT_RUN < n ? lo + SORT_RUN : n;
        for (int i = lo + 1; i < hi; i++) {
            double key[2] = {ev[2 * i], ev[2 * i + 1]};
            int j = i - 1;
            while (j >= lo && ev_less(key, ev + 2 * j)) {
                ev[2 * j + 2] = ev[2 * j];
                ev[2 * j + 3] = ev[2 * j + 1];
                j--;
            }
            ev[2 * j + 2] = key[0];
            ev[2 * j + 3] = key[1];
        }
    }
    if (n <= SORT_RUN)
        return;
    double buf[(3 * MAX_HOPS + 8) * 2];
    double *src = ev, *dst = buf;
    for (int width = SORT_RUN; width < n; width *= 2) {
        for (int lo = 0; lo < n; lo += 2 * width) {
            int mid = lo + width < n ? lo + width : n;
            int hi = lo + 2 * width < n ? lo + 2 * width : n;
            int i = lo, j = mid, k = lo;
            while (k < hi) {
                /* the left run wins ties: stable */
                const double *take = (j >= hi || (i < mid
                    && !ev_less(src + 2 * j, src + 2 * i)))
                    ? src + 2 * i++ : src + 2 * j++;
                dst[2 * k] = take[0];
                dst[2 * k + 1] = take[1];
                k++;
            }
        }
        double *swap = src;
        src = dst;
        dst = swap;
    }
    if (src != ev)
        for (int i = 0; i < 2 * n; i++)
            ev[i] = src[i];
}

/* mirror of vectorized._sweep_homogeneous (delay value only) */
static double sweep_homog(double capacity, double r, double delta,
                          double sigma, int hops, double gamma)
{
    double events[(3 * MAX_HOPS + 8) * 2];
    int n_ev = 0;
    double d0 = 0.0;
    double slope = 1.0;

    if (delta == -INFINITY) {
        for (int k = 0; k < hops; k++) {
            double k1 = sigma / (capacity - k * gamma);
            if (k1 > 0.0) {
                d0 += k1;
                slope -= 1.0;
                events[2 * n_ev] = k1; events[2 * n_ev + 1] = 1.0; n_ev++;
            }
        }
    } else if (delta == INFINITY) {
        for (int k = 0; k < hops; k++) {
            double denom = (capacity - k * gamma) - r;
            if (denom <= 0.0)
                return INFINITY;
            double k1 = sigma / denom;
            if (k1 > 0.0) {
                d0 += k1;
                slope -= 1.0;
                events[2 * n_ev] = k1; events[2 * n_ev + 1] = 1.0; n_ev++;
            }
        }
    } else if (delta <= 0.0) {
        double a = -delta;
        for (int k = 0; k < hops; k++) {
            double r_svc = capacity - k * gamma;
            double k1 = sigma / r_svc;
            double denom = r_svc - r;
            if (k1 <= 0.0)
                continue;
            if (k1 < a) {
                d0 += k1;
                slope -= 1.0;
                events[2 * n_ev] = k1; events[2 * n_ev + 1] = 1.0; n_ev++;
                events[2 * n_ev] = a; events[2 * n_ev + 1] = 0.0; n_ev++;
                if (denom > 0.0) {
                    double k2 = (sigma + r * delta) / denom;
                    if (k2 > 0.0 && isfinite(k2)) {
                        events[2 * n_ev] = k2;
                        events[2 * n_ev + 1] = 0.0; n_ev++;
                    }
                }
            } else {
                if (denom <= 0.0)
                    return INFINITY;
                double ratio = r / r_svc;
                double k2 = (sigma + r * delta) / denom;
                d0 += k1;
                if (a > 0.0) {
                    slope -= 1.0;
                    events[2 * n_ev] = a;
                    events[2 * n_ev + 1] = ratio; n_ev++;
                    events[2 * n_ev] = k2;
                    events[2 * n_ev + 1] = 1.0 - ratio; n_ev++;
                } else {
                    slope += ratio - 1.0;
                    if (k2 > 0.0) {
                        events[2 * n_ev] = k2;
                        events[2 * n_ev + 1] = 1.0 - ratio; n_ev++;
                    }
                }
                events[2 * n_ev] = k1; events[2 * n_ev + 1] = 0.0; n_ev++;
            }
        }
    } else {
        for (int k = 0; k < hops; k++) {
            double r_svc = capacity - k * gamma;
            double denom = r_svc - r;
            if (denom <= 0.0)
                return INFINITY;
            double z = sigma / denom;
            if (z <= 0.0)
                continue;
            double ratio = r / r_svc;
            double bp = z - delta;
            double aux = (sigma + r * (0.0 + delta)) / r_svc;
            if (bp <= 0.0) {
                d0 += z;
                slope -= 1.0;
                events[2 * n_ev] = z; events[2 * n_ev + 1] = 1.0; n_ev++;
            } else {
                d0 += (sigma + r * delta) / r_svc;
                slope += ratio - 1.0;
                events[2 * n_ev] = bp;
                events[2 * n_ev + 1] = -ratio; n_ev++;
                events[2 * n_ev] = z; events[2 * n_ev + 1] = 1.0; n_ev++;
            }
            if (aux > 0.0 && isfinite(aux)) {
                events[2 * n_ev] = aux; events[2 * n_ev + 1] = 0.0; n_ev++;
            }
        }
    }

    sort_events(events, n_ev);

    double cand_x[3 * MAX_HOPS + 9];
    double cand_a[3 * MAX_HOPS + 9];
    int n_cand = 0;
    cand_x[n_cand] = 0.0;
    cand_a[n_cand] = d0;
    n_cand++;
    double acc = d0;
    double acc_min = d0;
    double cur = slope;
    double prev = 0.0;
    for (int i = 0; i < n_ev; i++) {
        double x = events[2 * i];
        double change = events[2 * i + 1];
        acc += cur * (x - prev);
        prev = x;
        cand_x[n_cand] = x;
        cand_a[n_cand] = acc;
        n_cand++;
        if (acc < acc_min)
            acc_min = acc;
        cur += change;
    }

    /* Python max(1.0, abs(m)): 1.0 unless abs(m) > 1.0 (incl. NaN) */
    double am = fabs(acc_min);
    double scale = am > 1.0 ? am : 1.0;
    double window = acc_min + SWEEP_WINDOW * scale;
    double best_d = INFINITY;
    for (int i = 0; i < n_cand; i++) {
        if (cand_a[i] <= window) {
            double d = objective_homog(capacity, r, delta, sigma, hops,
                                       gamma, cand_x[i]);
            if (d < best_d)
                best_d = d;
        }
    }
    return best_d;
}

/* mirror of vectorized._e2e_probe */
static double probe_one(const double *c, double gamma)
{
    int hops = (int)c[HOPS];
    if (hops < 1 || hops > MAX_HOPS)
        return NAN;
    if ((hops + 1) * gamma >= c[CAP] - c[CRATE] - c[TRATE])
        return INFINITY;
    double sigma = sigma_fast(c, hops, gamma);
    if (!isfinite(sigma))
        return INFINITY;
    double delta = c[DELTA];
    if (delta == INFINITY) {
        double denom = (c[CAP] - (hops - 1) * gamma) - (c[CRATE] + gamma);
        return denom > 0.0 ? sigma / denom : INFINITY;
    }
    if (delta == 0.0)
        return fifo_closed_form(hops, c[CAP], c[CRATE], gamma, sigma);
    double r = c[CRATE] + gamma;
    return sweep_homog(c[CAP], r, delta, sigma, hops, gamma);
}

void probe_values(long n, const double *ctx, const long *idx,
                  const double *gammas, double *out)
{
    for (long i = 0; i < n; i++)
        out[i] = probe_one(ctx + NF * idx[i], gammas[i]);
}

/* (sqrt(5) - 1) / 2, same double as Python's _GOLDEN (IEEE sqrt is
 * correctly rounded, the rest is exact arithmetic) */
#define GOLDEN ((sqrt(5.0) - 1.0) / 2.0)

/* mirror of numeric.golden_section_min driven by probe_one; NaN out
 * signals "recompute in Python" (path beyond MAX_HOPS) */
static void golden_refine(const double *c, double lo, double hi,
                          double tol, long max_iter, double *out)
{
    double a = lo, b = hi;
    double x1 = b - GOLDEN * (b - a);
    double x2 = a + GOLDEN * (b - a);
    double f1 = probe_one(c, x1);
    double f2 = probe_one(c, x2);
    for (long i = 0; i < max_iter; i++) {
        if (isnan(f1) || isnan(f2)) {
            out[0] = NAN;
            out[1] = NAN;
            return;
        }
        /* Python max(1.0, abs(a) + abs(b)) */
        double span = fabs(a) + fabs(b);
        double scale = span > 1.0 ? span : 1.0;
        if (b - a <= tol * scale)
            break;
        if (f1 <= f2) {
            b = x2; x2 = x1; f2 = f1;
            x1 = b - GOLDEN * (b - a);
            f1 = probe_one(c, x1);
        } else {
            a = x1; x1 = x2; f1 = f2;
            x2 = a + GOLDEN * (b - a);
            f2 = probe_one(c, x2);
        }
    }
    if (isnan(f1) || isnan(f2)) {
        out[0] = NAN;
        out[1] = NAN;
        return;
    }
    if (f1 <= f2) {
        out[0] = x1;
        out[1] = f1;
    } else {
        out[0] = x2;
        out[1] = f2;
    }
}

void golden_values(long n, const double *ctx, const long *idx,
                   const double *los, const double *his,
                   double tol, long max_iter,
                   double *out_x, double *out_f)
{
    for (long i = 0; i < n; i++) {
        double pair[2];
        golden_refine(ctx + NF * idx[i], los[i], his[i], tol, max_iter,
                      pair);
        out_x[i] = pair[0];
        out_f[i] = pair[1];
    }
}

/* mirror of numeric.grid_then_golden(probe, gamma_max * 1e-6,
 * gamma_max * (1.0 - 1e-9), grid_points=grid, log_spaced=True): the
 * whole gamma search of one context.  out = (gamma, delay); a NaN delay
 * signals "recompute in Python" (which raises where Python raises) */
static void gamma_search(const double *c, long grid, double *out)
{
    int hops = (int)c[HOPS];
    double gamma_max = (c[CAP] - c[CRATE] - c[TRATE]) / (hops + 1);
    double low = gamma_max * 1e-6;
    double high = gamma_max * (1.0 - 1e-9);
    out[0] = NAN;
    out[1] = NAN;
    if (hops < 1 || hops > MAX_HOPS || grid < 3 || !(low > 0.0)
        || high < low)
        return;
    /* numeric.logspace: low * ratio**i; the first argmin wins */
    double ratio = pow(high / low, 1.0 / (grid - 1));
    long best = 0;
    double f_best = probe_one(c, low * pow(ratio, 0.0));
    for (long i = 1; i < grid && !isnan(f_best); i++) {
        double f = probe_one(c, low * pow(ratio, (double)i));
        if (isnan(f))
            return;
        if (f < f_best) {
            best = i;
            f_best = f;
        }
    }
    if (isnan(f_best))
        return;
    double x_best = low * pow(ratio, (double)best);
    if (!isfinite(f_best)) {
        out[0] = x_best;
        out[1] = f_best;
        return;
    }
    long lo = best > 0 ? best - 1 : 0;
    long hi = best + 1 < grid ? best + 1 : grid - 1;
    double ref[2];
    golden_refine(c, low * pow(ratio, (double)lo),
                  low * pow(ratio, (double)hi), 1e-9, 200, ref);
    if (isnan(ref[1]))
        return;
    if (ref[1] <= f_best) {
        out[0] = ref[0];
        out[1] = ref[1];
    } else {
        out[0] = x_best;
        out[1] = f_best;
    }
}

void gamma_values(long n, const double *ctx, const long *idx, long grid,
                  double *out_g, double *out_f)
{
    for (long i = 0; i < n; i++) {
        double pair[2];
        gamma_search(ctx + NF * idx[i], grid, pair);
        out_g[i] = pair[0];
        out_f[i] = pair[1];
    }
}

/* lane row: one MMOO bound, everything of the s-search but s */
#define L_PEAK 0
#define L_P11 1
#define L_P22 2
#define L_NTH 3
#define L_NCR 4
#define L_HOPS 5
#define L_CAP 6
#define L_DELTA 7
#define L_EPS 8
#define L_GRID 9
#define LF 10

/* mirror of MMOOParameters.effective_bandwidth; exp_overflow is
 * numeric.EXP_OVERFLOW, where safe_exp saturates */
static double effective_bandwidth(const double *lane, double s,
                                  double exp_overflow)
{
    double sp = s * lane[L_PEAK];
    double exp_sp = sp > exp_overflow ? INFINITY : exp(sp);
    double a = lane[L_P11] + lane[L_P22] * exp_sp;
    double disc = a * a - 4.0 * (lane[L_P11] + lane[L_P22] - 1.0) * exp_sp;
    disc = 0.0 > disc ? 0.0 : disc; /* Python max(disc, 0.0) */
    double spectral_radius = 0.5 * (a + sqrt(disc));
    return log(spectral_radius) / s;
}

/* the s-search objective of one lane at s: mirror of mmoo_ebb_pair,
 * the rate-headroom test and gamma_search.  No headroom: delay inf and
 * gamma NaN (nothing searched); NaN delay: recompute in Python */
static void mmoo_gamma(const double *lane, double s, double exp_overflow,
                       double *out)
{
    out[0] = NAN;
    out[1] = NAN;
    if (!(s > 0.0) || !isfinite(s))
        return;
    double eb = effective_bandwidth(lane, s, exp_overflow);
    double c[NF];
    c[TPRE] = 1.0;
    c[TDEC] = s;
    c[TRATE] = lane[L_NTH] * eb;
    c[CPRE] = 1.0;
    c[CDEC] = s;
    c[CRATE] = lane[L_NCR] > 0.0 ? lane[L_NCR] * eb : 1e-12;
    /* EBB() rejects rates that are not finite and > 0 */
    if (!(c[TRATE] > 0.0) || !isfinite(c[TRATE]) || !(c[CRATE] > 0.0)
        || !isfinite(c[CRATE]))
        return;
    c[HOPS] = lane[L_HOPS];
    c[CAP] = lane[L_CAP];
    c[DELTA] = lane[L_DELTA];
    c[EPS] = lane[L_EPS];
    if (c[CAP] - c[CRATE] - c[TRATE] <= 0.0) {
        out[1] = INFINITY;
        return;
    }
    gamma_search(c, (long)lane[L_GRID], out);
}

void mmoo_gamma_values(long n, const double *lanes, const long *idx,
                       const double *ss, double exp_overflow,
                       double *out_g, double *out_f)
{
    for (long i = 0; i < n; i++) {
        double pair[2];
        mmoo_gamma(lanes + LF * idx[i], ss[i], exp_overflow, pair);
        out_g[i] = pair[0];
        out_f[i] = pair[1];
    }
}
"""

_STRICT_FLAGS = [
    "-O2",
    "-fPIC",
    "-shared",
    "-fno-fast-math",
    "-ffp-contract=off",
]

_DOUBLES = ctypes.POINTER(ctypes.c_double)
_LONGS = ctypes.POINTER(ctypes.c_long)

#: argtypes of the kernel's entry points
_SIGNATURES = {
    "probe_values": [ctypes.c_long, _DOUBLES, _LONGS, _DOUBLES, _DOUBLES],
    "golden_values": [
        ctypes.c_long, _DOUBLES, _LONGS, _DOUBLES, _DOUBLES,
        ctypes.c_double, ctypes.c_long, _DOUBLES, _DOUBLES,
    ],
    "gamma_values": [
        ctypes.c_long, _DOUBLES, _LONGS, ctypes.c_long, _DOUBLES, _DOUBLES,
    ],
    "mmoo_gamma_values": [
        ctypes.c_long, _DOUBLES, _LONGS, _DOUBLES, ctypes.c_double,
        _DOUBLES, _DOUBLES,
    ],
}

_lib: ctypes.CDLL | None = None
_lib_checked = False


def _source_key() -> str:
    return hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]


def _compile() -> ctypes.CDLL | None:
    """Compile (or reuse) the kernel; ``None`` when no compiler works.

    Each compile works in its own temporary directory and publishes the
    shared object with one atomic rename, so processes that compile
    concurrently into the same cache directory never see each other's
    partial files.
    """
    cache_dir = os.environ.get("REPRO_CPROBE_DIR") or tempfile.gettempdir()
    so_path = os.path.join(cache_dir, f"repro_cprobe_{_source_key()}.so")
    if not os.path.exists(so_path):
        try:
            with tempfile.TemporaryDirectory(dir=cache_dir) as build:
                src_path = os.path.join(build, "repro_cprobe.c")
                tmp_so = os.path.join(build, "repro_cprobe.so")
                with open(src_path, "w") as handle:
                    handle.write(_C_SOURCE)
                subprocess.run(
                    ["cc", *_STRICT_FLAGS, "-o", tmp_so, src_path, "-lm"],
                    check=True,
                    capture_output=True,
                    timeout=120,
                )
                os.replace(tmp_so, so_path)
        except (OSError, subprocess.SubprocessError):
            return None
    try:
        lib = ctypes.CDLL(so_path)
        for name, argtypes in _SIGNATURES.items():
            function = getattr(lib, name)
            function.argtypes = argtypes
            function.restype = None
        return lib
    except (OSError, AttributeError):
        return None


def _get_lib() -> ctypes.CDLL | None:
    global _lib, _lib_checked
    if not _lib_checked:
        _lib = _compile()
        _lib_checked = True
        if obs.enabled():
            obs.set_gauge("cprobe.available", bool(_lib))
    return _lib


def available() -> bool:
    """Whether the compiled kernel is usable in this environment."""
    return _get_lib() is not None


def probe_kernel() -> str:
    """``"c"`` when the compiled kernel evaluates the probes, ``"python"``
    when they run on the (much slower) Python fallback."""
    return "c" if available() else "python"


class _Rows:
    """Packed float rows for the C kernel, in a geometrically grown
    buffer so registrations between kernel calls never trigger a full
    repack, next to the original objects of each row for the Python
    fallback — so either execution path serves the same requests."""

    def __init__(self, width: int) -> None:
        self._buf = np.empty((256, width), dtype=np.float64)
        self._n = 0
        self._objs: list[tuple] = []

    def __len__(self) -> int:
        return self._n

    def _append(self, row: tuple, obj: tuple) -> int:
        if self._n == len(self._buf):
            grown = np.empty((2 * len(self._buf), self._buf.shape[1]))
            grown[: self._n] = self._buf
            self._buf = grown
        self._buf[self._n] = row
        self._objs.append(obj)
        self._n += 1
        return self._n - 1

    def packed(self) -> np.ndarray:
        return self._buf


class ProbeTable(_Rows):
    """A registry of probe contexts for one batched solve.

    Each context is one ``(through, cross, hops, capacity, delta,
    epsilon)`` tuple — everything of the probe except ``gamma``.
    """

    def __init__(self) -> None:
        super().__init__(len(CTX_FIELDS))

    def add(
        self,
        through: EBB,
        cross: EBB,
        hops: int,
        capacity: float,
        delta: float,
        epsilon: float,
    ) -> int:
        """Register a context; returns its index."""
        return self._append(
            (
                through.prefactor, through.decay, through.rate,
                cross.prefactor, cross.decay, cross.rate,
                float(hops), capacity, delta, epsilon,
            ),
            (through, cross, hops, capacity, delta, epsilon),
        )

    def context(self, index: int) -> tuple[EBB, EBB, int, float, float, float]:
        return self._objs[index]


class LaneTable(_Rows):
    """A registry of MMOO lanes: everything of one bound's s-search
    objective except ``s`` (:data:`LANE_FIELDS`), registered once per
    lane and served at every ``s`` by :func:`mmoo_gamma_values`."""

    def __init__(self) -> None:
        super().__init__(len(LANE_FIELDS))

    def add(
        self,
        traffic: MMOOParameters,
        n_through: int,
        n_cross: int,
        hops: int,
        capacity: float,
        delta: float,
        epsilon: float,
        gamma_grid: int,
    ) -> int:
        """Register a lane; returns its index."""
        return self._append(
            (
                traffic.peak, traffic.p11, traffic.p22,
                float(n_through), float(n_cross), float(hops),
                capacity, delta, epsilon, float(gamma_grid),
            ),
            (
                traffic, n_through, n_cross, hops, capacity, delta,
                epsilon, int(gamma_grid),
            ),
        )

    def lane(self, index: int) -> tuple:
        return self._objs[index]


# --------------------------------------------------------------------- #
# Python fallbacks: the reference loops the kernel mirrors
# --------------------------------------------------------------------- #


def _probe_python(
    table: ProbeTable, indices: Sequence[int], gammas: Sequence[float]
) -> tuple[np.ndarray]:
    from repro.network.vectorized import _e2e_probe

    out = np.empty(len(indices), dtype=np.float64)
    for pos, (index, gamma) in enumerate(zip(indices, gammas)):
        out[pos] = _e2e_probe(*table.context(index), gamma)
    return (out,)


def _golden_python(
    table: ProbeTable,
    indices: Sequence[int],
    los: Sequence[float],
    his: Sequence[float],
    *,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray]:
    from repro.network.vectorized import _e2e_probe
    from repro.utils.numeric import golden_section_min

    out_x = np.empty(len(indices), dtype=np.float64)
    out_f = np.empty(len(indices), dtype=np.float64)
    for pos, (index, lo, hi) in enumerate(zip(indices, los, his)):
        context = table.context(index)
        out_x[pos], out_f[pos] = golden_section_min(
            lambda g: _e2e_probe(*context, g),
            lo,
            hi,
            tol=tol,
            max_iter=max_iter,
        )
    return out_x, out_f


def _gamma_search_python(
    through: EBB,
    cross: EBB,
    hops: int,
    capacity: float,
    delta: float,
    epsilon: float,
    grid: int,
) -> tuple[float, float]:
    """The gamma search of one context: ``grid_then_golden`` over the
    probe on the log grid of Eq. (32)'s open interval."""
    from repro.network.vectorized import _e2e_probe
    from repro.utils.numeric import grid_then_golden

    gamma_max = (capacity - cross.rate - through.rate) / (hops + 1)
    return grid_then_golden(
        lambda g: _e2e_probe(
            through, cross, hops, capacity, delta, epsilon, g
        ),
        gamma_max * 1e-6,
        gamma_max * (1.0 - 1e-9),
        grid_points=grid,
        log_spaced=True,
    )


def _gamma_python(
    table: ProbeTable, indices: Sequence[int], *, grid: int
) -> tuple[np.ndarray, np.ndarray]:
    out_g = np.empty(len(indices), dtype=np.float64)
    out_f = np.empty(len(indices), dtype=np.float64)
    for pos, index in enumerate(indices):
        out_g[pos], out_f[pos] = _gamma_search_python(
            *table.context(index), grid
        )
    return out_g, out_f


def _mmoo_gamma_python(
    table: LaneTable, indices: Sequence[int], ss: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    from repro.network.e2e import mmoo_ebb_pair

    out_g = np.empty(len(indices), dtype=np.float64)
    out_f = np.empty(len(indices), dtype=np.float64)
    for pos, (index, s) in enumerate(zip(indices, ss)):
        traffic, n_through, n_cross, hops, capacity, delta, epsilon, grid = (
            table.lane(index)
        )
        through, cross = mmoo_ebb_pair(traffic, n_through, n_cross, s)
        if capacity - cross.rate - through.rate <= 0:
            out_g[pos], out_f[pos] = math.nan, math.inf  # nothing searched
            continue
        out_g[pos], out_f[pos] = _gamma_search_python(
            through, cross, hops, capacity, delta, epsilon, grid
        )
    return out_g, out_f


# --------------------------------------------------------------------- #
# batch entry points: one C call per batch, NaN rows redone in Python
# --------------------------------------------------------------------- #


def _run(name, python, table, columns, scalars=(), outputs=1, **options):
    """Serve one batch of requests: a single call of kernel entry point
    ``name`` when the kernel compiled, else ``python`` over the whole
    batch.  ``columns`` are the per-request sequences (context indices
    first), ``scalars`` the batch-wide C arguments that follow them.
    Requests whose last output comes back NaN — paths beyond
    ``MAX_HOPS``, and anything the kernel does not mirror, such as the
    errors the Python search raises — are recomputed by ``python``."""
    lib = _get_lib()
    if lib is None:
        return python(table, *columns, **options)
    n = len(columns[0])
    args = [np.ascontiguousarray(columns[0], dtype=np.int64)]
    args += [np.ascontiguousarray(c, dtype=np.float64) for c in columns[1:]]
    outs = tuple(np.empty(n, dtype=np.float64) for _ in range(outputs))
    getattr(lib, name)(
        n,
        table.packed().ctypes.data_as(_DOUBLES),
        args[0].ctypes.data_as(_LONGS),
        *(a.ctypes.data_as(_DOUBLES) for a in args[1:]),
        *scalars,
        *(out.ctypes.data_as(_DOUBLES) for out in outs),
    )
    bad = np.isnan(outs[-1])
    if bad.any():
        fix = np.nonzero(bad)[0].tolist()
        redone = python(
            table, *([column[i] for i in fix] for column in columns),
            **options,
        )
        for out, values in zip(outs, redone):
            out[bad] = values
    return outs


def probe_values(
    table: ProbeTable, indices: Sequence[int], gammas: Sequence[float]
) -> np.ndarray:
    """Evaluate the probe for every ``(context, gamma)`` request.

    One C call for the whole batch when the compiled kernel is
    available; a Python ``_e2e_probe`` loop otherwise.  Values are
    bitwise-identical either way.
    """
    (out,) = _run("probe_values", _probe_python, table, (indices, gammas))
    return out


def golden_values(
    table: ProbeTable,
    indices: Sequence[int],
    los: Sequence[float],
    his: Sequence[float],
    *,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """Run a probe-driven golden-section refinement per request.

    Each request ``(context, lo, hi)`` runs the full
    :func:`repro.utils.numeric.golden_section_min` loop over the probe
    objective inside the C kernel — one C call for the whole batch
    instead of ~45 sequential probe rounds per search.  Returns
    ``(xs, fs)`` arrays, bitwise-identical to driving the Python golden
    section with scalar probes.
    """
    return _run(
        "golden_values", _golden_python, table, (indices, los, his),
        scalars=(tol, max_iter), outputs=2, tol=tol, max_iter=max_iter,
    )


def gamma_values(
    table: ProbeTable, indices: Sequence[int], grid: int
) -> tuple[np.ndarray, np.ndarray]:
    """The whole gamma search of every requested context.

    Request ``i`` runs :func:`repro.utils.numeric.grid_then_golden` over
    the probe of context ``indices[i]``, on a ``grid``-point log grid of
    ``(0, (C - rho_c - rho) / (H + 1))`` (Eq. (32)) — grid scan, first
    argmin, golden-section refinement of its bracketing cells — inside
    the C kernel.  Returns ``(gammas, delays)``, bitwise-identical to
    the Python search, which is also the fallback and raises its
    errors (a grid below three points, no rate headroom).
    """
    return _run(
        "gamma_values", _gamma_python, table, (indices,),
        scalars=(grid,), outputs=2, grid=grid,
    )


def mmoo_gamma_values(
    table: LaneTable, indices: Sequence[int], ss: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """The MMOO s-search objective of every ``(lane, s)`` request.

    Each request builds the lane's ``(through, cross)`` EBB pair at
    ``s`` (:func:`repro.network.e2e.mmoo_ebb_pair`) and runs the whole
    gamma search of :func:`gamma_values` on it, inside the C kernel.
    Returns ``(gammas, delays)``; a request without rate headroom at
    ``s`` yields delay ``inf`` and gamma NaN (nothing searched).
    Bitwise-identical to the Python search, which is the fallback.
    """
    return _run(
        "mmoo_gamma_values", _mmoo_gamma_python, table, (indices, ss),
        scalars=(EXP_OVERFLOW,), outputs=2,
    )
