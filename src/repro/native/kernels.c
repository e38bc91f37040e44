/* Native backend for the repro cost model's hot integer loops.
 *
 * Compiled on demand with the system C compiler (see build.py) and
 * bound via ctypes (see cdefs.py).  Every kernel is a *faithful
 * integer port* of an existing pure-Python loop — same heap
 * discipline, same tie-breaking, same port recurrences — so results
 * are bit-identical to the Python backend:
 *
 *   repro_replay_price   ReplayCostEvaluator.evaluate's heap loop
 *                        (the event scheduler's loop over a compiled
 *                        op stream: FIFO/round-robin dispatch, barrier
 *                        groups, pipelined port recurrence).
 *   repro_slot_counts    DMMBankPolicy / UMMGroupPolicy / IdealPolicy
 *                        slot counting over trace address segments.
 *   repro_batch_sim      BatchCostEngine._sim_dispatch's integer heap
 *                        replay of queued (range) transactions.
 *   repro_safe_prefix    BatchCostEngine._safe_prefix's tentative
 *                        port scan (longest dispatchable prefix).
 *   repro_wave_starts    BatchCostEngine._wave_dispatch's per-wave
 *                        prefix-maximum port recurrence.
 *
 * All quantities are int64; time values stay far below 2^62 (the
 * engines' _INF sentinel), so no overflow handling is needed beyond
 * what the numpy paths already assume.  Status returns: 0 (or a
 * nonnegative count) on success, -1 on allocation failure — the
 * Python wrapper falls back to the pure-Python loop on any negative
 * return.
 */

#include <stdlib.h>
#include <string.h>

typedef long long i64;
typedef signed char i8;
typedef short i16;
typedef unsigned char u8;

#define I64_INF 0x3fffffffffffffffLL

/* Python-style floored division/modulo (addresses are nonnegative in
 * practice; this keeps the semantics exact regardless). */
static i64 pydiv(i64 a, i64 m) {
    i64 q = a / m;
    if ((a % m) != 0 && ((a < 0) != (m < 0)))
        q--;
    return q;
}

static i64 pymod(i64 a, i64 m) {
    i64 r = a % m;
    return r < 0 ? r + m : r;
}

/* ------------------------------------------------------------------ */
/* Binary min-heap keyed by (t, w) — matches heapq over (int, int)    */
/* tuples.  Keys are unique (one live entry per warp), so strict      */
/* comparison reproduces Python's pop order exactly.                  */
/* ------------------------------------------------------------------ */

typedef struct {
    i64 *t;   /* primary key (time / encoded key) */
    i64 *w;   /* secondary key (warp id / entry index) */
    i64 *x;   /* payload (warp index), may alias w */
    i64 size;
} heap_t;

static int heap_less(const heap_t *h, i64 a, i64 b) {
    return h->t[a] < h->t[b] || (h->t[a] == h->t[b] && h->w[a] < h->w[b]);
}

static void heap_push(heap_t *h, i64 t, i64 w, i64 x) {
    i64 i = h->size++;
    h->t[i] = t;
    h->w[i] = w;
    h->x[i] = x;
    while (i > 0) {
        i64 p = (i - 1) / 2;
        if (!heap_less(h, i, p))
            break;
        i64 tt = h->t[p]; h->t[p] = h->t[i]; h->t[i] = tt;
        i64 tw = h->w[p]; h->w[p] = h->w[i]; h->w[i] = tw;
        i64 tx = h->x[p]; h->x[p] = h->x[i]; h->x[i] = tx;
        i = p;
    }
}

static void heap_pop(heap_t *h, i64 *t, i64 *w, i64 *x) {
    *t = h->t[0];
    *w = h->w[0];
    *x = h->x[0];
    h->size--;
    if (h->size == 0)
        return;
    h->t[0] = h->t[h->size];
    h->w[0] = h->w[h->size];
    h->x[0] = h->x[h->size];
    i64 i = 0;
    for (;;) {
        i64 c = 2 * i + 1;
        if (c >= h->size)
            break;
        if (c + 1 < h->size && heap_less(h, c + 1, c))
            c++;
        if (!heap_less(h, c, i))
            break;
        i64 tt = h->t[c]; h->t[c] = h->t[i]; h->t[i] = tt;
        i64 tw = h->w[c]; h->w[c] = h->w[i]; h->w[i] = tw;
        i64 tx = h->x[c]; h->x[c] = h->x[i]; h->x[i] = tx;
        i = c;
    }
}

/* ------------------------------------------------------------------ */
/* repro_replay_price                                                 */
/* ------------------------------------------------------------------ */

/* Barrier-group release: when every live member waits, all waiting
 * warps resume at the latest arrival, pushed in ascending-warp-id
 * order (matching `for w in sorted(group.waiting)`). */
static i64 rp_release(
    i64 g, i64 n_warps, const i64 *warp_ids, const i64 *wid_order,
    u8 *waiting, const i64 *arrival,
    const i64 *member_cnt, i64 *waiting_cnt,
    i64 *ready, heap_t *heap, u8 *in_heap)
{
    if (member_cnt[g] == 0 || waiting_cnt[g] != member_cnt[g])
        return 0;
    u8 *wrow = waiting + g * n_warps;
    const i64 *arow = arrival + g * n_warps;
    i64 rt = 0;
    int first = 1;
    i64 k;
    for (k = 0; k < n_warps; k++) {
        if (wrow[k] && (first || arow[k] > rt)) {
            rt = arow[k];
            first = 0;
        }
    }
    for (k = 0; k < n_warps; k++) {
        i64 x = wid_order[k];
        if (!wrow[x])
            continue;
        ready[x] = rt;
        heap_push(heap, rt, warp_ids[x], x);
        in_heap[x] = 1;
        wrow[x] = 0;
    }
    waiting_cnt[g] = 0;
    return 1;
}

/* The replay pricing loop.  Streams are per-warp op-index lists
 * (stream_ops[stream_off[x] .. stream_off[x+1]]); op kind 0 is a
 * memory transaction (op_arg = post-transaction compute), 1 a compute
 * op (op_arg = cycles), 2 a barrier (op_arg = scope; `scope_device`
 * marks device scope, anything else the warp's DMM group), 3 a
 * fully-masked memory op (a dispatch turn at no cost).
 * warp_group[x] in [1, n_groups) names warp x's DMM barrier group;
 * group 0 is the device group.  Returns 0 on success. */
i64 repro_replay_price(
    i64 n_warps,
    const i64 *warp_ids,
    const i64 *warp_group,
    const i64 *wid_order,
    const i64 *stream_off,
    const i64 *stream_ops,
    const i8 *op_kind,
    const i16 *op_unit,
    const i64 *op_arg,
    const i64 *slots,
    i64 n_units,
    const i64 *latency,
    const u8 *pipelined,
    i64 n_groups,
    i64 round_robin,
    i64 scope_device,
    i64 *out_scalars,
    i64 *out_busy,
    i64 *out_last)
{
    i64 makespan = 0, compute_ops = 0, compute_cycles = 0, releases = 0;
    i64 u;
    for (u = 0; u < n_units; u++) {
        out_busy[u] = 0;
        out_last[u] = 0;
    }
    if (n_warps == 0) {
        out_scalars[0] = out_scalars[1] = out_scalars[2] = out_scalars[3] = 0;
        return 0;
    }

    size_t nw = (size_t)n_warps, ng = (size_t)n_groups, nu = (size_t)n_units;
    size_t i64s = (nw * 5      /* ready, ptr, heap t/w/x */
                   + nw * 2    /* round-robin cohort w/x */
                   + ng * nw   /* arrival */
                   + ng * 2    /* member_cnt, waiting_cnt */
                   + nu);      /* port_free */
    size_t u8s = nw * 2 + ng * nw * 2;  /* in_heap, finished, member, waiting */
    char *blob = (char *)malloc(i64s * sizeof(i64) + u8s);
    if (blob == NULL)
        return -1;
    memset(blob, 0, i64s * sizeof(i64) + u8s);
    i64 *p64 = (i64 *)blob;
    i64 *ready = p64;        p64 += nw;
    i64 *ptr = p64;          p64 += nw;
    i64 *heap_tv = p64;      p64 += nw;
    i64 *heap_wv = p64;      p64 += nw;
    i64 *heap_xv = p64;      p64 += nw;
    i64 *cohort_w = p64;     p64 += nw;
    i64 *cohort_x = p64;     p64 += nw;
    i64 *arrival = p64;      p64 += ng * nw;
    i64 *member_cnt = p64;   p64 += ng;
    i64 *waiting_cnt = p64;  p64 += ng;
    i64 *pf = p64;           p64 += nu;
    u8 *pu8 = (u8 *)p64;
    u8 *in_heap = pu8;       pu8 += nw;
    u8 *finished = pu8;      pu8 += nw;
    u8 *member = pu8;        pu8 += ng * nw;
    u8 *waiting = pu8;

    heap_t heap = { heap_tv, heap_wv, heap_xv, 0 };
    i64 x;
    for (x = 0; x < n_warps; x++) {
        heap_push(&heap, 0, warp_ids[x], x);
        in_heap[x] = 1;
        member[x] = 1;                       /* device group row 0 */
        member[warp_group[x] * n_warps + x] = 1;
    }
    member_cnt[0] = n_warps;
    for (x = 0; x < n_warps; x++)
        member_cnt[warp_group[x]]++;

    i64 rr_next = 0;
    while (heap.size > 0) {
        i64 t, w, ix;
        heap_pop(&heap, &t, &w, &ix);
        if (round_robin) {
            i64 csize = 1;
            cohort_w[0] = w;
            cohort_x[0] = ix;
            while (heap.size > 0 && heap.t[0] == t) {
                heap_pop(&heap, &t, &cohort_w[csize], &cohort_x[csize]);
                csize++;
            }
            i64 best = 0;
            i64 best_key = pymod(cohort_w[0] - rr_next, n_warps);
            i64 c;
            for (c = 1; c < csize; c++) {
                i64 key = pymod(cohort_w[c] - rr_next, n_warps);
                if (key < best_key) {
                    best = c;
                    best_key = key;
                }
            }
            for (c = 0; c < csize; c++)
                if (c != best)
                    heap_push(&heap, t, cohort_w[c], cohort_x[c]);
            w = cohort_w[best];
            ix = cohort_x[best];
            rr_next = (w + 1) % n_warps;
        }
        in_heap[ix] = 0;
        if (finished[ix])
            continue;
        if (t != ready[ix]) {
            /* Stale entry (warp re-timed by a barrier release). */
            if (!in_heap[ix]) {
                heap_push(&heap, ready[ix], warp_ids[ix], ix);
                in_heap[ix] = 1;
            }
            continue;
        }
        if (ptr[ix] == stream_off[ix + 1] - stream_off[ix]) {
            finished[ix] = 1;
            if (t > makespan)
                makespan = t;
            /* Retire from the device group, then the DMM group. */
            i64 gs[2];
            gs[0] = 0;
            gs[1] = warp_group[ix];
            int gi;
            for (gi = 0; gi < 2; gi++) {
                i64 g = gs[gi];
                u8 *mrow = member + g * n_warps;
                if (!mrow[ix])
                    continue;
                mrow[ix] = 0;
                member_cnt[g]--;
                u8 *wrow = waiting + g * n_warps;
                if (wrow[ix]) {
                    wrow[ix] = 0;
                    waiting_cnt[g]--;
                }
                releases += rp_release(
                    g, n_warps, warp_ids, wid_order, waiting, arrival,
                    member_cnt, waiting_cnt, ready, &heap, in_heap);
            }
            continue;
        }
        i64 i = stream_ops[stream_off[ix] + ptr[ix]];
        ptr[ix]++;
        i8 k = op_kind[i];
        if (k == 0) {  /* memory transaction */
            i64 un = (i64)op_unit[i];
            i64 s = slots[i];
            i64 start = t > pf[un] ? t : pf[un];
            i64 complete = start + s + latency[un] - 2;
            pf[un] = pipelined[un] ? start + s : complete + 1;
            if (start + s > out_busy[un])
                out_busy[un] = start + s;
            if (complete > out_last[un])
                out_last[un] = complete;
            i64 post = op_arg[i];
            if (post) {
                compute_ops++;
                compute_cycles += post;
            }
            i64 nr = complete + 1 + post;
            ready[ix] = nr;
            if (nr > makespan)
                makespan = nr;
            heap_push(&heap, nr, w, ix);
            in_heap[ix] = 1;
        } else if (k == 1) {  /* compute */
            compute_ops++;
            compute_cycles += op_arg[i];
            i64 nr = t + op_arg[i];
            ready[ix] = nr;
            if (nr > makespan)
                makespan = nr;
            heap_push(&heap, nr, w, ix);
            in_heap[ix] = 1;
        } else if (k == 3) {  /* fully-masked memory op: a turn, no cost */
            heap_push(&heap, t, w, ix);
            in_heap[ix] = 1;
        } else {  /* barrier arrival */
            i64 g = op_arg[i] == scope_device ? 0 : warp_group[ix];
            waiting[g * n_warps + ix] = 1;
            waiting_cnt[g]++;
            arrival[g * n_warps + ix] = t;
            releases += rp_release(
                g, n_warps, warp_ids, wid_order, waiting, arrival,
                member_cnt, waiting_cnt, ready, &heap, in_heap);
        }
    }

    out_scalars[0] = makespan;
    out_scalars[1] = compute_ops;
    out_scalars[2] = compute_cycles;
    out_scalars[3] = releases;
    free(blob);
    return 0;
}

/* ------------------------------------------------------------------ */
/* repro_slot_counts                                                  */
/* ------------------------------------------------------------------ */

static int cmp_i64(const void *a, const void *b) {
    i64 x = *(const i64 *)a, y = *(const i64 *)b;
    return (x > y) - (x < y);
}

static void sort_i64(i64 *a, i64 n) {
    if (n > 64) {
        qsort(a, (size_t)n, sizeof(i64), cmp_i64);
        return;
    }
    i64 i;
    for (i = 1; i < n; i++) {
        i64 v = a[i];
        i64 j = i - 1;
        while (j >= 0 && a[j] > v) {
            a[j + 1] = a[j];
            j--;
        }
        a[j + 1] = v;
    }
}

/* Slot counts for `n_list` memory transactions.  ops[e] indexes the
 * trace's address table: lanes addresses[addr_off[op] .. addr_off[op+1]].
 * policy 0: DMM bank conflicts — distinct addresses, max per-bank
 *           count of `a mod width` (numpy: unique then bincount max).
 * policy 1: UMM address groups — count of distinct `a div width`.
 * policy 2: ideal — 1 per non-empty transaction.
 * Empty transactions count 0 under every policy. */
i64 repro_slot_counts(
    i64 n_list,
    const i64 *ops,
    const i64 *addr_off,
    const i64 *addresses,
    i64 width,
    i64 policy,
    i64 *out)
{
    i64 max_len = 0, e;
    for (e = 0; e < n_list; e++) {
        i64 op = ops[e];
        i64 len = addr_off[op + 1] - addr_off[op];
        if (len > max_len)
            max_len = len;
    }
    if (max_len == 0 || policy == 2) {
        for (e = 0; e < n_list; e++)
            out[e] = (addr_off[ops[e] + 1] - addr_off[ops[e]]) > 0 ? 1 : 0;
        if (max_len == 0)
            for (e = 0; e < n_list; e++)
                out[e] = 0;
        return 0;
    }
    i64 *buf = (i64 *)malloc((size_t)(max_len + width) * sizeof(i64));
    if (buf == NULL)
        return -1;
    i64 *bank = buf + max_len;
    memset(bank, 0, (size_t)width * sizeof(i64));
    /* The paper's widths are powers of two: floor division and modulo
     * by one are an arithmetic shift and a mask, far cheaper than the
     * 64-bit division pydiv/pymod pay per address. */
    int pow2 = width > 0 && (width & (width - 1)) == 0;
    int shift = 0;
    while (pow2 && ((i64)1 << shift) < width)
        shift++;
    i64 mask = width - 1;
    for (e = 0; e < n_list; e++) {
        i64 op = ops[e];
        i64 lo = addr_off[op];
        i64 len = addr_off[op + 1] - lo;
        if (len == 0) {
            out[e] = 0;
            continue;
        }
        memcpy(buf, addresses + lo, (size_t)len * sizeof(i64));
        sort_i64(buf, len);
        i64 m = 1, i;
        for (i = 1; i < len; i++)
            if (buf[i] != buf[m - 1])
                buf[m++] = buf[i];
        if (policy == 1) {  /* distinct address groups */
            i64 cnt = 1;
            i64 g = pow2 ? buf[0] >> shift : pydiv(buf[0], width);
            for (i = 1; i < m; i++) {
                i64 gg = pow2 ? buf[i] >> shift : pydiv(buf[i], width);
                if (gg != g) {
                    cnt++;
                    g = gg;
                }
            }
            out[e] = cnt;
        } else {  /* max per-bank count of distinct addresses */
            i64 best = 0;
            for (i = 0; i < m; i++) {
                i64 b = pow2 ? buf[i] & mask : pymod(buf[i], width);
                i64 c = ++bank[b];
                if (c > best)
                    best = c;
            }
            for (i = 0; i < m; i++)
                bank[pow2 ? buf[i] & mask : pymod(buf[i], width)] = 0;
            out[e] = best;
        }
    }
    free(buf);
    return 0;
}

/* ------------------------------------------------------------------ */
/* repro_batch_sim                                                    */
/* ------------------------------------------------------------------ */

/* Integer heap replay of a dispatch queue with fused ranges (the
 * while-heap loop of BatchCostEngine._sim_dispatch).  Entry i starts
 * at key enc0[i] with rounds j0[i]..nround[i]-1; its per-round slot
 * counts are slot_flat[slot_off[i] + j].  Pops are emitted in event
 * order into out_enc/out_i/out_j/out_nxt/out_pf (capacity: total
 * remaining rounds); a chain's final next-ready lands in out_final[i].
 * Returns the number of pops, or -1 on allocation failure. */
i64 repro_batch_sim(
    i64 n,
    const i64 *enc0,
    const i64 *wid,
    const i64 *comp,
    const i64 *j0,
    const i64 *nround,
    const i64 *slot_off,
    const i64 *slot_flat,
    i64 nw,
    i64 lat1,
    i64 pipelined,
    i64 pf0,
    i64 *out_enc,
    i64 *out_i,
    i64 *out_j,
    i64 *out_nxt,
    i64 *out_pf,
    i64 *out_final)
{
    i64 *blob = (i64 *)malloc((size_t)n * 4 * sizeof(i64));
    if (blob == NULL)
        return -1;
    i64 *ht = blob;
    i64 *hw = blob + n;
    i64 *hx = blob + 2 * n;
    i64 *js = blob + 3 * n;
    heap_t heap = { ht, hw, hx, 0 };
    i64 i;
    for (i = 0; i < n; i++) {
        js[i] = j0[i];
        out_final[i] = 0;
        heap_push(&heap, enc0[i], i, i);
    }
    i64 pf = pf0, p = 0;
    while (heap.size > 0) {
        i64 enc, iw, ix;
        heap_pop(&heap, &enc, &iw, &ix);
        i64 j = js[ix];
        i64 s = slot_flat[slot_off[ix] + j];
        i64 ready = pydiv(enc, nw);
        i64 start = ready > pf ? ready : pf;
        pf = start + (pipelined ? s : s + lat1);
        i64 nxt = start + s + lat1 + comp[ix];
        out_enc[p] = enc;
        out_i[p] = ix;
        out_j[p] = j;
        out_nxt[p] = nxt;
        out_pf[p] = pf;
        p++;
        js[ix] = j + 1;
        if (js[ix] < nround[ix])
            heap_push(&heap, nxt * nw + wid[ix], ix, ix);
        else
            out_final[ix] = nxt;
    }
    free(blob);
    return p;
}

/* ------------------------------------------------------------------ */
/* repro_safe_prefix                                                  */
/* ------------------------------------------------------------------ */

/* Longest dispatchable prefix of a sorted queue of plain transactions
 * (the scalar scan of BatchCostEngine._safe_prefix).  Returns k. */
i64 repro_safe_prefix(
    i64 n,
    const i64 *enc,
    const i64 *slots,
    i64 nw,
    i64 lat,
    i64 pipelined,
    i64 pf0,
    i64 outside)
{
    i64 pf = pf0;
    i64 prev_min = I64_INF;
    i64 cap = prev_min < outside ? prev_min : outside;
    i64 k = 0, e;
    for (e = 0; e < n; e++) {
        i64 ec = enc[e];
        if (ec >= cap)
            break;
        i64 ready = pydiv(ec, nw);
        i64 w = ec - ready * nw;
        i64 s = slots[e];
        i64 start = ready > pf ? ready : pf;
        pf = start + (pipelined ? s : s + lat - 1);
        i64 enc_nr = (start + s + lat - 1) * nw + w;
        if (enc_nr < prev_min) {
            prev_min = enc_nr;
            if (prev_min < cap)
                cap = prev_min;
        }
        k++;
    }
    return k;
}

/* ------------------------------------------------------------------ */
/* repro_wave_starts                                                  */
/* ------------------------------------------------------------------ */

/* The per-wave prefix-maximum port recurrence of
 * BatchCostEngine._wave_dispatch's non-uniform branch.  S is the
 * (R x n) row-major slot matrix; READY/STARTS are filled (R x n);
 * out_final receives each chain's next-ready after its last round.
 * Returns the final port-free time. */
i64 repro_wave_starts(
    i64 R,
    i64 n,
    const i64 *S,
    i64 r0,
    i64 pf0,
    i64 lat1,
    i64 pipelined,
    i64 lag,
    i64 *READY,
    i64 *STARTS,
    i64 *out_final)
{
    i64 pf = pf0, i, j;
    for (i = 0; i < n; i++)
        out_final[i] = r0;
    for (j = 0; j < R; j++) {
        const i64 *Sj = S + j * n;
        i64 *Rj = READY + j * n;
        i64 *Tj = STARTS + j * n;
        i64 cs = 0;
        i64 run = -I64_INF;
        i64 last_start = 0, last_eff = 0;
        for (i = 0; i < n; i++) {
            i64 eff = pipelined ? Sj[i] : Sj[i] + lat1;
            i64 v = out_final[i] - cs;
            if (v > run)
                run = v;
            i64 t = run > pf ? run : pf;
            Rj[i] = out_final[i];
            i64 st = t + cs;
            Tj[i] = st;
            out_final[i] = st + Sj[i] + lag;
            cs += eff;
            last_start = st;
            last_eff = eff;
        }
        pf = last_start + last_eff;
    }
    return pf;
}
