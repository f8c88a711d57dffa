"""The compiled core loop: the whole of the ``fast`` backend's schedule.

:class:`repro.cpu.fastcore.FastCore` runs the pipeline schedule
(fetch/dispatch/issue/writeback/commit, the completion heap, the ready
list, the Welford accumulators) in the C function below. It is compiled
once with the system C compiler into a cached shared library and driven
through :mod:`ctypes` — no third-party build machinery and no
install-time step. Without a compiler (or when the build fails) the
kernel is unavailable and ``fast`` runs the reference core instead.
The same source holds the trace pre-decode and the fresh-table bimod
stream (:mod:`repro.isa.predecode`). The loop reads a trace's ``op``,
``addr`` and ``value`` columns in place; per-op tables give each op's
unit slot, latency and memory class.

The kernel owns the schedule but *not* the cache model, which stays in
Python:

* The kernel mirrors only the L1's MRU way per set (``mru_line`` /
  ``mru_pa`` arrays). For BCP's ``PrefetchingCache`` that is the
  wrapped cache's MRU way: the wrapper looks at its buffer only on a
  cache miss. A load whose word is present in the mirrored MRU way is
  the cache's uncounted inline-hit path — served at ``hit_latency``
  with zero Python involvement, exactly what ``load_word`` would do.
* A store that hits the mirrored MRU way without changing anything but
  the data word is journaled in C and applied before the next callback.
* Everything else crosses back into Python via two ``ctypes`` callbacks
  (one for load misses-of-the-MRU-way, one for the remaining stores).
  The callback runs the ordinary word-op against the real cache and then
  refreshes the mirror entries for the only sets the access can have
  touched (the addressed set and, for a compression cache, its
  affiliated set) — so the mirror never claims a false hit.

Bit-identicality with the reference core holds because the Welford
recurrences use the same IEEE-754 double operations in the same order
(compiled without ``-ffast-math``, so the compiler may not reassociate
them) and every other statistic is an integer tally.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.caches.compression_cache import CompressionCache
from repro.caches.interface import SERVED_CODE_BITS
from repro.caches.next_line import PrefetchingCache
from repro.cpu.resources import _UNIT_INDEX, FuPool
from repro.errors import ConfigurationError, TraceError
from repro.isa.opcodes import OpClass
from repro.isa.trace import _LATENCY_TABLE, _MAX_REG
from repro.utils.intmath import is_pow2

__all__ = [
    "Tallies", "bimod_columns", "kernel_available", "predecode_columns", "run_compiled"
]

#: Completion-heap entries pack ``(cycle << _IDX_BITS) | idx`` into one
#: 64-bit int, so a trace may hold at most ``2**_IDX_BITS`` instructions.
_IDX_BITS = 25

#: Slots of the per-code load tally (every packed word-op code fits).
_N_CODES = 1 << SERVED_CODE_BITS

#: Memory class of an op: what the C code's ``mem_tbl`` holds.
_MEM_LOAD, _MEM_STORE = 1, 2


def _op_table(values, dtype) -> np.ndarray:
    """*values* by op code, zero-padded to one entry per ``uint8`` code."""
    table = np.zeros(256, dtype=dtype)
    table[: len(values)] = values
    return table


#: Per-op tables the C code indexes with a trace's ``op`` column:
#: functional-unit slot, execution latency and memory class.
_OP_SLOT = _op_table(_UNIT_INDEX, np.uint8)
_OP_LATENCY = _op_table(_LATENCY_TABLE, np.int32)
_OP_MEM = _op_table([], np.uint8)
_OP_MEM[[OpClass.LOAD, OpClass.STORE]] = _MEM_LOAD, _MEM_STORE

# ---- the kernel ---------------------------------------------------------------

_C_SOURCE = f"""
#define IDX_BITS {_IDX_BITS}
#define CODE_BITS {SERVED_CODE_BITS}
#define N_REGS {_MAX_REG + 1}
#define OP_BRANCH {int(OpClass.BRANCH)}
#define MEM_LOAD {_MEM_LOAD}
#define MEM_STORE {_MEM_STORE}
""" + r"""
#define N_CODES (1 << CODE_BITS)
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t (*load_cb_t)(uint32_t addr, int64_t now);
typedef int64_t (*store_cb_t)(uint32_t addr, uint32_t value, int64_t now);

enum {
    P_N, P_ISSUE_W, P_COMMIT_W, P_DECODE_W, P_FETCH_W,
    P_RUU, P_LSQ, P_IFQ, P_MISP_PEN, P_FWD_LAT, P_IDLE_SKIP,
    P_L1_HIT, P_N_SLOTS, P_SET_MASK, P_LINE_SHIFT, P_WIDX_MASK,
    P_HARD_LIMIT,
    /* Trivial-store journal: 0 = off, 1 = conventional cache (any MRU
       hit is trivial), 2 = compression cache with the prefix scheme
       (MRU hit whose compressibility bit is unchanged is trivial). */
    P_TRIVIAL_MODE, P_SMALL_SHIFT, P_SMALL_ONES, P_PTR_SHIFT
};

enum {
    O_ERR, O_NOW, O_COMMITTED, O_STORE_COUNT, O_N_LOADS, O_FWD_LOADS,
    O_N_MISPRED, O_FETCH_STALL, O_MISS_CYCLES, O_ALL_N, O_MISS_N,
    O_UNCOUNTED_STORES, O_ERR_A, O_ERR_B, O_SERVED0
    /* O_SERVED0 .. O_SERVED0+N_CODES-1: per-code load counts */
};

enum { D_ALL_MEAN, D_ALL_M2, D_MISS_MEAN, D_MISS_M2 };

#define IDX_MASK ((1u << IDX_BITS) - 1)

static void heap_push(uint64_t *h, int *hn, uint64_t v) {
    int i = (*hn)++;
    h[i] = v;
    while (i > 0) {
        int p = (i - 1) >> 1;
        if (h[p] <= h[i]) break;
        uint64_t t = h[p]; h[p] = h[i]; h[i] = t;
        i = p;
    }
}

static uint64_t heap_pop(uint64_t *h, int *hn) {
    uint64_t top = h[0];
    int n = --(*hn);
    h[0] = h[n];
    int i = 0;
    for (;;) {
        int l = 2 * i + 1, s = i;
        if (l < n && h[l] < h[s]) s = l;
        if (l + 1 < n && h[l + 1] < h[s]) s = l + 1;
        if (s == i) break;
        uint64_t t = h[s]; h[s] = h[i]; h[i] = t;
        i = s;
    }
    return top;
}

int64_t run_core(
    const int64_t *params,
    /* The trace's op column and the per-op tables it indexes (256
       entries each, so no uint8 code reads past them). */
    const uint8_t *op_arr, const uint8_t *slot_tbl,
    const int32_t *lat_tbl, const uint8_t *mem_tbl,
    const int32_t *fwd_arr, const uint32_t *addr_arr,
    const uint32_t *value_arr,
    const int32_t *dep1_arr, const int32_t *dep2_arr,
    const uint8_t *mispred_arr, const int32_t *next_mp_arr,
    const int32_t *cons_start, const int32_t *cons_flat,
    const int32_t *fu_limits,
    /* The MRU mirror and journal counter are rewritten by the Python
       callbacks while this function is on the stack: volatile forbids
       caching them across the callback boundary. */
    volatile const int64_t *mru_line, volatile const uint32_t *mru_pa,
    volatile const uint32_t *mru_vcp,
    uint64_t *journal, volatile int64_t *journal_n,
    load_cb_t load_cb, store_cb_t store_cb,
    int64_t *out_i, double *out_d)
{
    const int64_t n = params[P_N];
    const int64_t issue_w = params[P_ISSUE_W];
    const int64_t commit_w = params[P_COMMIT_W];
    const int64_t decode_w = params[P_DECODE_W];
    const int64_t fetch_w = params[P_FETCH_W];
    const int64_t ruu = params[P_RUU];
    const int64_t lsq = params[P_LSQ];
    const int64_t ifq = params[P_IFQ];
    const int64_t misp_pen = params[P_MISP_PEN];
    const int64_t fwd_lat = params[P_FWD_LAT];
    const int64_t idle_skip = params[P_IDLE_SKIP];
    const int64_t l1_hit = params[P_L1_HIT];
    const int64_t n_slots = params[P_N_SLOTS];
    const int64_t set_mask = params[P_SET_MASK];
    const int64_t line_shift = params[P_LINE_SHIFT];
    const uint32_t widx_mask = (uint32_t)params[P_WIDX_MASK];
    const int64_t hard_limit = params[P_HARD_LIMIT];
    const int64_t trivial_mode = params[P_TRIVIAL_MODE];
    const uint32_t small_shift = (uint32_t)params[P_SMALL_SHIFT];
    const uint32_t small_ones = (uint32_t)params[P_SMALL_ONES];
    const uint32_t ptr_shift = (uint32_t)params[P_PTR_SHIFT];

    uint8_t *state = (uint8_t *)calloc((size_t)n, 1);
    uint8_t *pending = (uint8_t *)calloc((size_t)n, 1);
    uint8_t *missf = (uint8_t *)calloc((size_t)n, 1);
    uint64_t *heap = (uint64_t *)malloc(sizeof(uint64_t) * (size_t)(ruu + 8));
    int64_t *ready = (int64_t *)malloc(sizeof(int64_t) * (size_t)(ruu + 8));
    int32_t fu_free[64];
    int64_t err = 0, err_a = 0, err_b = 0;
    int heap_n = 0, ready_n = 0;
    int64_t i_fetch = 0, disp_end = 0, committed = 0, now = 0;
    int64_t lsq_used = 0, outstanding = 0;
    int fetch_blocked = 0;
    int64_t pending_resume = -1;
    int64_t served[N_CODES] = {0};
    int64_t store_count = 0, n_loads = 0, fwd_loads = 0, n_mispred = 0;
    int64_t fetch_stall = 0, miss_cycles = 0, uncounted_stores = 0;
    int64_t all_n = 0, miss_n = 0;
    double all_mean = 0.0, all_m2 = 0.0, miss_mean = 0.0, miss_m2 = 0.0;

    if (!state || !pending || !missf || !heap || !ready || n_slots > 64) {
        err = 4;
        goto done;
    }

    while (committed < n) {
        if (now > hard_limit) { err = 1; err_a = now; err_b = committed; goto done; }

        /* writeback: results arriving this cycle */
        if (heap_n) {
            uint64_t limit = (uint64_t)(now + 1) << IDX_BITS;
            while (heap_n && heap[0] < limit) {
                int64_t idx = (int64_t)(heap_pop(heap, &heap_n) & IDX_MASK);
                state[idx] = 3;
                if (missf[idx]) { outstanding--; missf[idx] = 0; }
                for (int32_t ci = cons_start[idx]; ci < cons_start[idx + 1]; ci++) {
                    int64_t k = cons_flat[ci];
                    if (k < disp_end) {
                        uint8_t p = (uint8_t)(pending[k] - 1);
                        pending[k] = p;
                        if (p == 0) {
                            state[k] = 1;
                            int lo = 0, hi = ready_n;
                            while (lo < hi) {
                                int mid = (lo + hi) >> 1;
                                if (ready[mid] < k) lo = mid + 1; else hi = mid;
                            }
                            for (int j = ready_n; j > lo; j--) ready[j] = ready[j - 1];
                            ready[lo] = k;
                            ready_n++;
                        }
                    }
                }
                if (mispred_arr[idx]) pending_resume = now + misp_pen;
            }
        }

        /* commit: in order, up to commit_width */
        {
            int64_t n_commit = 0;
            while (committed < disp_end && n_commit < commit_w) {
                if (state[committed] != 3) break;
                int64_t idx = committed;
                committed++;
                n_commit++;
                uint8_t mem = mem_tbl[op_arr[idx]];
                if (mem) {
                    lsq_used--;
                    if (mem == MEM_STORE) {
                        uint32_t addr = addr_arr[idx];
                        uint32_t value = value_arr[idx];
                        int trivial = 0;
                        if (trivial_mode) {
                            int64_t ln = (int64_t)(addr >> line_shift);
                            int64_t si = ln & set_mask;
                            uint32_t bit = 1u << ((addr >> 2) & widx_mask);
                            if (mru_line[si] == ln && (mru_pa[si] & bit)) {
                                if (trivial_mode == 1) {
                                    trivial = 1;
                                } else {
                                    uint32_t top = value >> small_shift;
                                    int comp = (top == 0) || (top == small_ones)
                                        || ((value >> ptr_shift)
                                            == (addr >> ptr_shift));
                                    if (comp == ((mru_vcp[si] & bit) != 0))
                                        trivial = 1;
                                }
                            }
                        }
                        if (trivial) {
                            /* Uncounted MRU hit whose only effect is the
                               data word itself; deferred to the journal,
                               drained before the next Python callback. */
                            journal[(*journal_n)++] =
                                ((uint64_t)addr << 32) | (uint64_t)value;
                            uncounted_stores++;
                        } else {
                            int64_t r = store_cb(addr, value, now);
                            if (r < 0) { err = 3; goto done; }
                            if (r) uncounted_stores++;
                        }
                        store_count++;
                    }
                }
            }
        }
        if (committed >= n) break;

        /* issue: oldest-first among READY entries */
        int64_t ready_len = ready_n;
        if (ready_n) {
            for (int64_t s = 0; s < n_slots; s++) fu_free[s] = fu_limits[s];
            int64_t n_issued = 0;
            int kept_n = 0;
            for (int pos = 0; pos < ready_n; pos++) {
                int64_t idx = ready[pos];
                uint8_t op = op_arr[idx];
                uint8_t sl = slot_tbl[op];
                int32_t avail = fu_free[sl];
                if (avail) {
                    fu_free[sl] = avail - 1;
                    state[idx] = 2;
                    int64_t lat = lat_tbl[op];
                    if (mem_tbl[op] == MEM_LOAD) {
                        n_loads++;
                        uint32_t addr = addr_arr[idx];
                        if (fwd_arr[idx] >= committed) {
                            fwd_loads++;
                            lat = fwd_lat;
                        } else {
                            int64_t ln = (int64_t)(addr >> line_shift);
                            int64_t si = ln & set_mask;
                            if (mru_line[si] == ln &&
                                ((mru_pa[si] >> ((addr >> 2) & widx_mask)) & 1u)) {
                                lat = l1_hit;
                                served[0]++;
                            } else {
                                int64_t packed = load_cb(addr, now);
                                if (packed < 0) { err = 3; goto done; }
                                served[packed & (N_CODES - 1)]++;
                                lat = packed >> CODE_BITS;
                                if (lat < 1) lat = 1;
                            }
                        }
                        if (lat > l1_hit) { missf[idx] = 1; outstanding++; }
                    }
                    heap_push(heap, &heap_n,
                              ((uint64_t)(now + lat) << IDX_BITS) | (uint64_t)idx);
                    n_issued++;
                    if (n_issued >= issue_w) {
                        for (int j = pos + 1; j < ready_n; j++) ready[kept_n++] = ready[j];
                        break;
                    }
                } else {
                    ready[kept_n++] = idx;
                }
            }
            ready_n = kept_n;
        }

        /* metrics sample: same Welford recurrence, same operation order */
        {
            double delta = (double)ready_len - all_mean;
            int64_t total = all_n + 1;
            all_mean += delta / (double)total;
            all_m2 += delta * delta * (double)all_n / (double)total;
            all_n = total;
        }
        if (outstanding > 0) {
            miss_cycles++;
            double delta = (double)ready_len - miss_mean;
            int64_t total = miss_n + 1;
            miss_mean += delta / (double)total;
            miss_m2 += delta * delta * (double)miss_n / (double)total;
            miss_n = total;
        }
        if (fetch_blocked) fetch_stall++;

        /* dispatch: IFQ -> RUU/LSQ */
        int64_t n_disp = 0;
        while (disp_end < i_fetch && n_disp < decode_w
               && disp_end - committed < ruu) {
            int64_t idx = disp_end;
            uint8_t im = mem_tbl[op_arr[idx]];
            if (im && lsq_used >= lsq) break;
            disp_end++;
            n_disp++;
            int32_t d1 = dep1_arr[idx], d2 = dep2_arr[idx];
            int p = 0;
            if (d1 >= committed && state[d1] != 3) p = 1;
            if (d2 >= committed && state[d2] != 3) p += 1;
            if (p == 0) {
                state[idx] = 1;
                ready[ready_n++] = idx;  /* idx exceeds every queued index */
            } else {
                pending[idx] = (uint8_t)p;
            }
            if (im) lsq_used++;
        }

        /* fetch: fill the IFQ unless redirecting */
        if (fetch_blocked && pending_resume >= 0 && now >= pending_resume) {
            fetch_blocked = 0;
            pending_resume = -1;
        }
        if (!fetch_blocked && i_fetch < n) {
            int64_t room = ifq - (i_fetch - disp_end);
            int64_t take = fetch_w < room ? fetch_w : room;
            if (take > n - i_fetch) take = n - i_fetch;
            if (take > 0) {
                int64_t next_mp = next_mp_arr[i_fetch];
                if (next_mp < i_fetch + take) {
                    i_fetch = next_mp + 1;
                    n_mispred++;
                    fetch_blocked = 1;
                } else {
                    i_fetch += take;
                }
            }
        }

        /* advance the clock, skipping provably idle cycles */
        int64_t next_now = now + 1;
        /* ready_len (pre-issue), not ready_n: a full issue leaves the kept
           list empty, but the reference only treats pre-issue-idle cycles
           as skippable — matching it keeps the Welford gap partitioning
           (and therefore the accumulators' rounding) bit-identical. */
        if (idle_skip && ready_len == 0 && n_disp == 0
            && (committed == disp_end || state[committed] != 3)
            && (disp_end == i_fetch
                || disp_end - committed >= ruu
                || (mem_tbl[op_arr[disp_end]] && lsq_used >= lsq))
            && (fetch_blocked || i_fetch >= n || i_fetch - disp_end >= ifq)) {
            int64_t skip_to = -1;
            if (heap_n) skip_to = (int64_t)(heap[0] >> IDX_BITS);
            if (fetch_blocked && pending_resume >= 0
                && (skip_to < 0 || pending_resume < skip_to))
                skip_to = pending_resume;
            if (skip_to < 0) { err = 2; err_a = now; err_b = committed; goto done; }
            if (skip_to < next_now) skip_to = next_now;
            int64_t gap = skip_to - next_now;
            if (gap > 0) {
                double delta = 0.0 - all_mean;
                int64_t total = all_n + gap;
                all_mean += delta * (double)gap / (double)total;
                all_m2 += delta * delta * (double)all_n * (double)gap / (double)total;
                all_n = total;
                if (outstanding > 0) {
                    miss_cycles += gap;
                    delta = 0.0 - miss_mean;
                    total = miss_n + gap;
                    miss_mean += delta * (double)gap / (double)total;
                    miss_m2 += delta * delta * (double)miss_n * (double)gap
                               / (double)total;
                    miss_n = total;
                }
                if (fetch_blocked) fetch_stall += gap;
            }
            next_now = skip_to;
        }
        now = next_now;
    }

done:
    free(state);
    free(pending);
    free(missf);
    free(heap);
    free(ready);
    out_i[O_ERR] = err;
    out_i[O_NOW] = now;
    out_i[O_COMMITTED] = committed;
    out_i[O_STORE_COUNT] = store_count;
    out_i[O_N_LOADS] = n_loads;
    out_i[O_FWD_LOADS] = fwd_loads;
    out_i[O_N_MISPRED] = n_mispred;
    out_i[O_FETCH_STALL] = fetch_stall;
    out_i[O_MISS_CYCLES] = miss_cycles;
    out_i[O_ALL_N] = all_n;
    out_i[O_MISS_N] = miss_n;
    out_i[O_UNCOUNTED_STORES] = uncounted_stores;
    out_i[O_ERR_A] = err_a;
    out_i[O_ERR_B] = err_b;
    for (int c = 0; c < N_CODES; c++) out_i[O_SERVED0 + c] = served[c];
    out_d[D_ALL_MEAN] = all_mean;
    out_d[D_ALL_M2] = all_m2;
    out_d[D_MISS_MEAN] = miss_mean;
    out_d[D_MISS_M2] = miss_m2;
    return err;
}

/* Pre-decode (see repro.isa.predecode): each source's last writer, each
   load's youngest older same-address store, and the reverse dependence
   edges in CSR form. cons_flat has room for 2n edges; returns the number
   of edges, or -1 when scratch allocation fails. */
int64_t predecode(
    int64_t n, const uint8_t *op_arr, const int16_t *dest_arr,
    const int16_t *src1_arr, const int16_t *src2_arr,
    const uint32_t *addr_arr, const uint8_t *mem_tbl,
    int32_t *dep1_arr, int32_t *dep2_arr, int32_t *fwd_arr,
    int32_t *cons_start, int32_t *cons_flat)
{
    /* Open-addressed store-address -> youngest-store table, at most half
       full, so every probe ends at the key or an empty slot. */
    int64_t n_stores = 0;
    for (int64_t i = 0; i < n; i++) n_stores += mem_tbl[op_arr[i]] == MEM_STORE;
    int bits = 1;
    while (((int64_t)1 << bits) < 2 * n_stores) bits++;
    const uint64_t hmask = ((uint64_t)1 << bits) - 1;
    /* One scratch block: the last writers and each slot's store index
       (all -1: no writer, empty slot), then each slot's address. */
    const size_t n_init = N_REGS + hmask + 1;
    int32_t *last_writer = (int32_t *)malloc(sizeof(int32_t) * (n_init + hmask + 1));
    if (!last_writer) return -1;
    memset(last_writer, 0xff, sizeof(int32_t) * n_init);
    int32_t *vals = last_writer + N_REGS;
    uint32_t *keys = (uint32_t *)(vals + hmask + 1);
    memset(cons_start, 0, sizeof(int32_t) * (size_t)(n + 1));

    int64_t n_edges = 0;
    for (int64_t i = 0; i < n; i++) {
        int32_t d1 = src1_arr[i] >= 0 ? last_writer[src1_arr[i]] : -1;
        int32_t d2 = src2_arr[i] >= 0 ? last_writer[src2_arr[i]] : -1;
        dep1_arr[i] = d1;
        dep2_arr[i] = d2;
        if (d1 >= 0) { cons_start[d1]++; n_edges++; }
        if (d2 >= 0) { cons_start[d2]++; n_edges++; }
        if (dest_arr[i] >= 0) last_writer[dest_arr[i]] = (int32_t)i;
        int32_t fwd = -1;
        uint8_t mem = mem_tbl[op_arr[i]];
        if (mem) {
            uint32_t a = addr_arr[i];
            uint64_t h = ((uint64_t)a * 0x9E3779B97F4A7C15ull) >> (64 - bits);
            while (vals[h] >= 0 && keys[h] != a) h = (h + 1) & hmask;
            if (mem == MEM_LOAD) {
                fwd = vals[h];
            } else {
                keys[h] = a;
                vals[h] = (int32_t)i;
            }
        }
        fwd_arr[i] = fwd;
    }
    free(last_writer);

    /* Counting sort by producer, consumers in program order: the order
       the reference appends to its per-entry consumer lists. A consumer
       reading one register twice appears twice. cons_start[d] first
       holds d's count, then its first slot, then (as the fill cursor)
       its end, and is shifted back to d's first slot at the end. */
    int32_t acc = 0;
    for (int64_t d = 0; d < n; d++) {
        int32_t count = cons_start[d];
        cons_start[d] = acc;
        acc += count;
    }
    cons_start[n] = acc;
    for (int64_t i = 0; i < n; i++) {
        if (dep1_arr[i] >= 0) cons_flat[cons_start[dep1_arr[i]]++] = (int32_t)i;
        if (dep2_arr[i] >= 0) cons_flat[cons_start[dep2_arr[i]]++] = (int32_t)i;
    }
    for (int64_t d = n; d > 0; d--) cons_start[d] = cons_start[d - 1];
    cons_start[0] = 0;
    return n_edges;
}

/* A fresh bimod table of n_entries 2-bit counters over the whole trace,
   exactly repro.cpu.branch.mispredict_flags: flags[i] = 1 iff i is a
   mispredicted branch; next_mp[i] = the smallest j >= i with flags[j]
   set, or n. Returns the number of mispredicts, or -1 when the table
   cannot be allocated. */
int64_t bimod_stream(
    int64_t n, const uint32_t *pc_arr, const uint8_t *op_arr,
    const uint8_t *taken_arr, int64_t n_entries,
    uint8_t *flags, int32_t *next_mp)
{
    uint8_t *table = (uint8_t *)malloc((size_t)n_entries);
    if (!table) return -1;
    memset(table, 2, (size_t)n_entries);  /* weakly taken */
    const uint32_t mask = (uint32_t)(n_entries - 1);
    int64_t n_mis = 0;
    for (int64_t i = 0; i < n; i++) {
        flags[i] = 0;
        if (op_arr[i] != OP_BRANCH) continue;
        uint8_t *counter = &table[(pc_arr[i] >> 3) & mask];
        int taken = taken_arr[i] != 0;
        if ((*counter >= 2) != taken) { flags[i] = 1; n_mis++; }
        if (taken) { if (*counter < 3) (*counter)++; }
        else if (*counter > 0) (*counter)--;
    }
    free(table);
    int32_t next = (int32_t)n;
    for (int64_t i = n - 1; i >= 0; i--) {
        if (flags[i]) next = (int32_t)i;
        next_mp[i] = next;
    }
    return n_mis;
}
"""

_LOAD_CB = ctypes.CFUNCTYPE(ctypes.c_int64, ctypes.c_uint32, ctypes.c_int64)
_STORE_CB = ctypes.CFUNCTYPE(
    ctypes.c_int64, ctypes.c_uint32, ctypes.c_uint32, ctypes.c_int64
)

# Output-array indices (mirror the C enums).
_O_ERR, _O_NOW, _O_COMMITTED, _O_STORE_COUNT, _O_N_LOADS, _O_FWD_LOADS = range(6)
_O_N_MISPRED, _O_FETCH_STALL, _O_MISS_CYCLES, _O_ALL_N, _O_MISS_N = range(6, 11)
_O_UNCOUNTED_STORES, _O_ERR_A, _O_ERR_B, _O_SERVED0 = range(11, 15)
_OUT_I_LEN = _O_SERVED0 + _N_CODES

# ---- build & cache ------------------------------------------------------------

_KERNEL = None
_TRIED = False


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_CKERNEL_DIR")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro"


def _build() -> ctypes.CDLL | None:
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        return None
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = cache / f"coreloop-{digest}.so"
    if not so_path.exists():
        cache.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as td:
            src = Path(td) / "coreloop.c"
            src.write_text(_C_SOURCE)
            built = Path(td) / "coreloop.so"
            # No -ffast-math: the Welford recurrences must stay exact
            # IEEE doubles evaluated in source order.
            result = subprocess.run(
                [cc, "-O2", "-fPIC", "-shared", "-o", str(built), str(src)],
                capture_output=True,
                timeout=120,
            )
            if result.returncode != 0 or not built.exists():
                return None
            os.replace(built, so_path)
    lib = ctypes.CDLL(str(so_path))
    # Array parameters accept only contiguous arrays of their C type.
    b, u8, i16, i32, u32, i64, u64, f64 = (
        np.ctypeslib.ndpointer(t, flags="C_CONTIGUOUS")
        for t in (np.bool_, np.uint8, np.int16, np.int32, np.uint32)
        + (np.int64, np.uint64, np.float64)
    )
    n = ctypes.c_int64
    for fn, argtypes in (
        (
            lib.run_core,
            [i64, u8, u8, i32, u8, i32, u32, u32, i32, i32, u8, i32, i32, i32]
            + [i32, i64, u32, u32, u64, i64, _LOAD_CB, _STORE_CB, i64, f64],
        ),
        (lib.predecode, [n, u8, i16, i16, i16, u32, u8, i32, i32, i32, i32, i32]),
        (lib.bimod_stream, [n, u32, u8, b, n, u8, i32]),
    ):
        fn.restype = ctypes.c_int64
        fn.argtypes = argtypes
    return lib


def _get_kernel() -> ctypes.CDLL | None:
    global _KERNEL, _TRIED
    if not _TRIED:
        _TRIED = True
        try:
            _KERNEL = _build()
        except Exception:
            _KERNEL = None
    return _KERNEL


def kernel_available() -> bool:
    """True when the compiled loop is usable in this process."""
    return _get_kernel() is not None


def _require_kernel() -> ctypes.CDLL:
    if (lib := _get_kernel()) is None:
        raise ConfigurationError(
            "pre-decode needs the compiled kernel: no C compiler on this "
            "host, or its build failed"
        )
    return lib


# ---- pre-decode ---------------------------------------------------------------


def predecode_columns(trace) -> tuple[np.ndarray, ...]:
    """``(dep1, dep2, cons_start, cons_flat, fwd)`` of *trace*, filled in C.

    Every column is a contiguous ``int32`` array; ``cons_flat`` holds
    exactly the edge count. Raises :class:`ConfigurationError` when the
    kernel is unavailable.
    """
    lib = _require_kernel()
    n = len(trace)
    if 2 * n >= 1 << 31:
        raise TraceError(f"{n} instructions overflow the int32 pre-decode columns")
    dep1, dep2, fwd = (np.empty(n, dtype=np.int32) for _ in range(3))
    cons_start = np.empty(n + 1, dtype=np.int32)
    cons_flat = np.empty(2 * n, dtype=np.int32)  # at most two edges each
    n_edges = lib.predecode(
        n, trace.op, trace.dest, trace.src1, trace.src2, trace.addr, _OP_MEM,
        dep1, dep2, fwd, cons_start, cons_flat,
    )
    if n_edges < 0:
        raise MemoryError("pre-decode scratch allocation failed")
    cons_flat.resize(n_edges, refcheck=False)  # shrinks in place
    return dep1, dep2, cons_start, cons_flat, fwd


def bimod_columns(trace, n_entries: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """A fresh *n_entries*-counter bimod stream over *trace*, filled in C.

    Returns the fields of :class:`repro.isa.predecode.BimodStream`. Raises
    :class:`ConfigurationError` when the kernel is unavailable or
    *n_entries* is not a power of two (the C code masks with it).
    """
    lib = _require_kernel()
    if not is_pow2(n_entries):
        raise ConfigurationError("predictor table size must be a power of two")
    n = len(trace)
    flags = np.empty(n, dtype=np.uint8)
    next_mp = np.empty(n, dtype=np.int32)
    n_mispredicts = lib.bimod_stream(
        n, trace.pc, trace.op, trace.taken, n_entries, flags, next_mp
    )
    if n_mispredicts < 0:
        raise MemoryError("bimod table allocation failed")
    return flags, next_mp, trace.n_branches, n_mispredicts


# ---- invocation ---------------------------------------------------------------


class Tallies(NamedTuple):
    """What one kernel run counted, before it joins the shared stats."""

    now: int
    committed: int
    store_count: int
    n_loads: int
    forwarded_loads: int
    n_mispredicts: int
    fetch_stall_cycles: int
    miss_cycles: int
    all_n: int
    miss_n: int
    #: Journaled (uncounted) MRU store hits; code-0 loads are ``served[0]``.
    uncounted_stores: int
    #: Loads per packed word-op code (index = code).
    served: list[int]
    all_mean: float
    all_m2: float
    miss_mean: float
    miss_m2: float
    #: The fresh-table bimod stream's branch and mispredict counts.
    bp_branches: int
    bp_mispredicts: int


def run_compiled(trace, pre, cfg, l1):
    """Run the compiled loop; returns :class:`Tallies` or ``None``.

    ``None`` means nothing was executed — the kernel is unavailable, the
    L1's lines are wider than its 32-bit masks, the trace is longer than
    its heap entries can index, or its scratch allocation failed — and
    the caller should run the reference core. Deadlock/limit conditions
    raise :class:`TraceError` exactly like the reference; exceptions
    from the cache model propagate unchanged.
    """
    lib = _get_kernel()
    n = len(trace)
    if lib is None or l1.line_words > 32 or n >= 1 << _IDX_BITS:
        return None

    bp = pre.bimod_outcomes(trace, cfg.bimod_entries)
    fu_limits = FuPool(cfg.fu)._limits
    hard_limit = 2_000 * n + 1_000_000  # the reference core's deadlock bound

    # The cache whose MRU ways the kernel mirrors: BCP's wrapper serves
    # every hit from the conventional cache it wraps.
    mirrored = l1.cache if type(l1) is PrefetchingCache else l1
    sets = mirrored._sets
    set_mask = mirrored.set_mask
    line_shift = mirrored.line_shift
    widx_mask = l1.line_words - 1
    n_sets = set_mask + 1
    mru_line = np.full(n_sets, -1, dtype=np.int64)
    mru_pa = np.zeros(n_sets, dtype=np.uint32)
    mru_vcp = np.zeros(n_sets, dtype=np.uint32)
    journal = np.zeros(trace.n_stores + 1, dtype=np.uint64)
    journal_n = np.zeros(1, dtype=np.int64)
    exc: list[BaseException] = []
    load_word = l1.load_word
    store_word = l1.store_word

    if type(l1) is CompressionCache:
        pair_mask = l1.policy.mask
        trivial_mode = (
            2 if (l1._prefix_params is not None and l1._pair_in_slot) else 0
        )
        prefix = l1._prefix_params or (0, 0, 0)

        def _drain() -> None:
            # Apply journaled trivial stores (MRU primary hits whose
            # compressibility bit did not change: their only effect is
            # the data word and the dirty flag). Nothing touched the
            # cache since they were journaled, so their frames are still
            # the MRU way of their sets.
            count = journal_n[0]
            if count:
                for packed in journal[:count].tolist():
                    addr = packed >> 32
                    frame = sets[(addr >> line_shift) & set_mask][0]
                    frame.pvals[(addr >> 2) & widx_mask] = packed & 0xFFFFFFFF
                    frame.dirty = True
                journal_n[0] = 0

        def _refresh(ln: int) -> None:
            # The only frames an access can touch live in the addressed
            # set and the affiliated set.
            for probe in (ln, ln ^ pair_mask):
                s = probe & set_mask
                frame = sets[s][0]
                mru_line[s] = frame.line_no
                mru_pa[s] = frame.pa
                mru_vcp[s] = frame.vcp

    else:
        full_mask = mirrored.full_mask
        trivial_mode = 1  # every MRU store hit is trivial
        prefix = (0, 0, 0)

        def _drain() -> None:
            count = journal_n[0]
            if count:
                for packed in journal[:count].tolist():
                    addr = packed >> 32
                    line = sets[(addr >> line_shift) & set_mask][0]
                    line.data[(addr >> 2) & widx_mask] = packed & 0xFFFFFFFF
                    line.dirty = True
                journal_n[0] = 0

        def _refresh(ln: int) -> None:
            # Only the addressed set changes: BCP's prefetches fill its
            # buffer, never a cache way.
            s = ln & set_mask
            line = sets[s][0]
            if line.valid:
                mru_line[s] = line.line_no
                mru_pa[s] = full_mask
            else:
                mru_line[s] = -1
                mru_pa[s] = 0

    def _on_load(addr: int, now: int) -> int:
        try:
            _drain()
            packed = load_word(addr, now)
            _refresh(addr >> line_shift)
            return packed
        except BaseException as e:  # noqa: BLE001 - relayed across C
            exc.append(e)
            return -1

    def _on_store(addr: int, value: int, now: int) -> int:
        try:
            _drain()
            hit = store_word(addr, value, now)
            _refresh(addr >> line_shift)
            return 1 if hit else 0
        except BaseException as e:  # noqa: BLE001 - relayed across C
            exc.append(e)
            return -1

    params = np.asarray(
        [
            n,
            cfg.issue_width,
            cfg.commit_width,
            cfg.decode_width,
            cfg.fetch_width,
            cfg.ruu_size,
            cfg.lsq_size,
            cfg.ifq_size,
            cfg.mispredict_penalty,
            cfg.forward_latency,
            1 if cfg.enable_idle_skip else 0,
            l1.hit_latency,
            len(fu_limits),
            set_mask,
            line_shift,
            widx_mask,
            hard_limit,
            trivial_mode,
            prefix[0],
            prefix[1],
            prefix[2],
        ],
        dtype=np.int64,
    )
    fu_arr = np.asarray(fu_limits, dtype=np.int32)
    out_i = np.zeros(_OUT_I_LEN, dtype=np.int64)
    out_d = np.zeros(4, dtype=np.float64)

    load_cb = _LOAD_CB(_on_load)
    store_cb = _STORE_CB(_on_store)
    lib.run_core(
        params, trace.op, _OP_SLOT, _OP_LATENCY, _OP_MEM, pre.fwd,
        trace.addr, trace.value, pre.dep1, pre.dep2, bp.flags, bp.next_mp,
        pre.cons_start, pre.cons_flat, fu_arr, mru_line, mru_pa, mru_vcp,
        journal, journal_n, load_cb, store_cb, out_i, out_d,
    )
    _drain()

    err = int(out_i[_O_ERR])
    if err == 3:
        raise exc[0] if exc else TraceError("core callback failed")
    if err == 1:
        raise TraceError(
            f"core exceeded {hard_limit} cycles at instruction "
            f"{int(out_i[_O_ERR_B])}/{n}: probable deadlock"
        )
    if err == 2:
        raise TraceError(
            f"core deadlocked at cycle {int(out_i[_O_ERR_A])} "
            f"({int(out_i[_O_ERR_B])}/{n} committed)"
        )
    if err:
        return None  # allocation failure before any simulation step

    counts = out_i.tolist()
    return Tallies(
        *counts[_O_NOW:_O_ERR_A],
        counts[_O_SERVED0:_OUT_I_LEN],
        *out_d.tolist(),
        bp.n_branches,
        bp.n_mispredicts,
    )
